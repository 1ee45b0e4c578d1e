// Package sim provides a discrete-time simulated multi-GPU machine.
//
// Every algorithm in this repository runs for real on real data; what sim
// provides is virtual time. Each device (GPU) and each host CPU carries a
// virtual clock, and operations charge that clock according to calibrated
// cost models: a roofline model for kernels (compute-bound vs memory-bound),
// bandwidth/latency models for NVLink peer access, PCIe host transfers and
// inter-node InfiniBand, and a page-fault model for CUDA Unified Memory.
//
// The models are calibrated to the DGX-A100 numbers reported in the
// WholeGraph paper (SC 2022): Table I (UM vs GPUDirect P2P latency) and
// Figure 8 (random-gather bandwidth vs segment size). Reported experiment
// times are virtual seconds; they are deterministic and independent of the
// host running the simulation.
package sim

import "fmt"

// DeviceParams models a single GPU.
type DeviceParams struct {
	// FP32TFLOPS is the peak single-precision throughput in TFLOP/s.
	FP32TFLOPS float64
	// GemmEff is the fraction of peak a tuned dense kernel achieves.
	GemmEff float64
	// MemBWGBs is the peak device memory (HBM) bandwidth in GB/s.
	MemBWGBs float64
	// MemEff is the fraction of peak streaming kernels achieve.
	MemEff float64
	// RandMemEff is the fraction of peak achieved by random (gather-style)
	// access patterns to local memory.
	RandMemEff float64
	// KernelLaunch is the host-side launch overhead per kernel in seconds.
	KernelLaunch float64
	// GraphLaunch is the host-side cost of launching one captured execution
	// graph (cudaGraphLaunch). Inside a graph replay the per-kernel launch
	// overhead vanishes — the whole step pays this once instead of
	// KernelLaunch per kernel.
	GraphLaunch float64
	// MemGB is the device memory capacity in GB (bookkeeping only; the
	// simulator does not enforce it but experiments report against it).
	MemGB float64
	// MallocPerGB is the cudaMalloc cost in seconds per GB allocated.
	MallocPerGB float64
	// MallocBase is the fixed cudaMalloc cost in seconds per call.
	MallocBase float64
}

// LinkParams models the interconnect fabric of one machine node and the
// network between nodes.
type LinkParams struct {
	// NVLinkUniGBs is the theoretical unidirectional NVLink bandwidth per
	// GPU in GB/s (300 on DGX-A100).
	NVLinkUniGBs float64
	// NVLinkEffGBs is the peak effective payload bandwidth for the bytes
	// that actually cross NVLink during a peer gather, in GB/s. With 1/8
	// of accesses local, an effective 230 GB/s reproduces the paper's
	// measured ~260 GB/s AlgoBW / ~230 GB/s BusBW plateau (Figure 8).
	NVLinkEffGBs float64
	// NVLinkHeaderBytes is the per-segment transaction overhead in bytes;
	// it produces the bandwidth-vs-segment-size curve of Figure 8.
	NVLinkHeaderBytes float64
	// P2PBaseLatency is the GPUDirect peer access latency in seconds for a
	// small working set (Table I: ~1.35 us at 8 GB).
	P2PBaseLatency float64
	// P2PLatencyPerGB adds latency per GB of working set, modelling TLB and
	// page-table pressure (Table I: up to 1.56 us at 128 GB).
	P2PLatencyPerGB float64
	// UMBaseLatency is the Unified Memory page-fault service latency in
	// seconds at the small end (Table I: 20.8 us at 8 GB).
	UMBaseLatency float64
	// UMExtraLatency and UMSaturationGB shape the saturating growth of UM
	// latency with working-set size (Table I: 35.8 us at 128 GB).
	UMExtraLatency float64
	UMSaturationGB float64
	// PCIeGBs is the PCIe switch uplink bandwidth in GB/s (32 for 4.0 x16).
	PCIeGBs float64
	// GPUsPerSwitch is how many GPUs share one PCIe uplink (2 on DGX-A100).
	GPUsPerSwitch int
	// PCIeLatency is the per-transfer setup latency in seconds.
	PCIeLatency float64
	// IBGBs is the per-node inter-node bandwidth in GB/s (8x ConnectX-6
	// HDR on DGX-A100: 8 x 25 GB/s).
	IBGBs float64
	// IBLatency is the network latency in seconds.
	IBLatency float64
	// IPCExchange is the time for the CUDA IPC handle AllGather performed
	// once per shared allocation, in seconds.
	IPCExchange float64
	// UMBulkGBs is the sustained bandwidth of bulk access to non-resident
	// Unified Memory (page-fault + migration pipeline), in GB/s. It sits
	// an order of magnitude below NVLink peer access, which is the paper's
	// argument for building on GPUDirect P2P instead (Table I).
	UMBulkGBs float64
}

// CPUParams models the host CPUs of one node.
type CPUParams struct {
	// MemBWGBs is the streaming host memory bandwidth available to one
	// training process in GB/s.
	MemBWGBs float64
	// GatherGBs is the random-gather bandwidth available to one training
	// process in GB/s (far below streaming: TLB misses, small rows).
	GatherGBs float64
	// ScalarOpsPerSec is the generic scalar work rate for host code.
	ScalarOpsPerSec float64
}

// MachineConfig fully describes a simulated cluster.
type MachineConfig struct {
	Nodes       int
	GPUsPerNode int
	Device      DeviceParams
	Link        LinkParams
	CPU         CPUParams
}

// DGXA100 returns the configuration of a cluster of DGX-A100 nodes
// (8x A100-40GB, NVSwitch, PCIe 4.0, 8x HDR InfiniBand), calibrated to the
// microbenchmarks in the WholeGraph paper.
func DGXA100(nodes int) MachineConfig {
	return MachineConfig{
		Nodes:       nodes,
		GPUsPerNode: 8,
		Device: DeviceParams{
			FP32TFLOPS:   19.5,
			GemmEff:      0.45,
			MemBWGBs:     1555,
			MemEff:       0.78,
			RandMemEff:   0.35,
			KernelLaunch: 4.5e-6,
			GraphLaunch:  10e-6,
			MemGB:        40,
			MallocPerGB:  1.0e-3,
			MallocBase:   0.1e-3,
		},
		Link: LinkParams{
			NVLinkUniGBs:      300,
			NVLinkEffGBs:      230,
			NVLinkHeaderBytes: 16,
			P2PBaseLatency:    1.34e-6,
			P2PLatencyPerGB:   1.8e-9,
			UMBaseLatency:     20.8e-6,
			UMExtraLatency:    15.2e-6,
			UMSaturationGB:    21,
			PCIeGBs:           32,
			GPUsPerSwitch:     2,
			PCIeLatency:       5e-6,
			IBGBs:             200,
			IBLatency:         3e-6,
			IPCExchange:       2e-3,
			UMBulkGBs:         22,
		},
		CPU: CPUParams{
			MemBWGBs:        24,
			GatherGBs:       3.0,
			ScalarOpsPerSec: 2.5e9,
		},
	}
}

// PCIeServer returns the configuration of a commodity 8-GPU server without
// NVLink: peer access crosses the PCIe fabric at a fraction of NVSwitch
// bandwidth and with higher latency. The paper's design explicitly targets
// NVLink-class machines ("DGX-A100"); this preset quantifies how much of
// WholeGraph's advantage depends on that fabric (hardware ablation).
func PCIeServer(nodes int) MachineConfig {
	cfg := DGXA100(nodes)
	cfg.Link.NVLinkUniGBs = 16
	cfg.Link.NVLinkEffGBs = 11
	cfg.Link.P2PBaseLatency = 2.5e-6
	cfg.Link.P2PLatencyPerGB = 3e-9
	return cfg
}

// Validate reports whether the configuration is self-consistent.
func (c MachineConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("sim: Nodes must be positive, got %d", c.Nodes)
	case c.GPUsPerNode <= 0:
		return fmt.Errorf("sim: GPUsPerNode must be positive, got %d", c.GPUsPerNode)
	case c.Link.GPUsPerSwitch <= 0:
		return fmt.Errorf("sim: GPUsPerSwitch must be positive, got %d", c.Link.GPUsPerSwitch)
	case c.Device.FP32TFLOPS <= 0 || c.Device.MemBWGBs <= 0:
		return fmt.Errorf("sim: device throughputs must be positive")
	}
	return nil
}

// Machine is an instantiated simulated cluster.
type Machine struct {
	Cfg  MachineConfig
	Devs []*Device // all devices, node-major
	CPUs []*CPU    // one per node

	// Collective-engine link state: busy-until times (virtual seconds) of
	// each device's NVLink egress port and each node's aggregate IB NIC.
	// Touched only by the collective entry points, which — like Barrier —
	// run on the orchestrating goroutine.
	nvlinkFree []float64
	ibFree     []float64
	// Scratch reused across collective calls (per-device ready times,
	// send-interval times and round payloads, and their per-node
	// counterparts), so the steady-state training loop stays
	// allocation-free.
	collReady, collSendStart, collSendEnd, collChunk []float64
	nodeReady, nodeSendStart, nodeSendEnd            []float64
}

// NewMachine builds a Machine from cfg. It panics on invalid configuration;
// use cfg.Validate first when the configuration is user-supplied.
func NewMachine(cfg MachineConfig) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		m.CPUs = append(m.CPUs, &CPU{m: m, Node: n})
		for g := 0; g < cfg.GPUsPerNode; g++ {
			m.Devs = append(m.Devs, &Device{
				m: m, ID: n*cfg.GPUsPerNode + g, Node: n, Local: g,
			})
		}
	}
	nd := len(m.Devs)
	m.nvlinkFree = make([]float64, nd)
	m.ibFree = make([]float64, cfg.Nodes)
	m.collReady = make([]float64, nd)
	m.collSendStart = make([]float64, nd)
	m.collSendEnd = make([]float64, nd)
	m.collChunk = make([]float64, nd)
	m.nodeReady = make([]float64, cfg.Nodes)
	m.nodeSendStart = make([]float64, cfg.Nodes)
	m.nodeSendEnd = make([]float64, cfg.Nodes)
	return m
}

// NodeDevs returns the devices of one node.
func (m *Machine) NodeDevs(node int) []*Device {
	g := m.Cfg.GPUsPerNode
	return m.Devs[node*g : (node+1)*g]
}

// AddCPU registers an additional host executor on the given node and returns
// it. Extra CPUs model independent host processes (e.g. one dataloader
// process per training worker, as DGL/PyG spawn) whose clocks advance
// independently; they participate in Reset and MaxTime like the per-node
// primary CPUs. The first Nodes entries of m.CPUs remain the per-node
// primaries, so m.CPUs[node] indexing stays valid.
func (m *Machine) AddCPU(node int) *CPU {
	if node < 0 || node >= m.Cfg.Nodes {
		panic(fmt.Sprintf("sim: AddCPU node %d out of range [0,%d)", node, m.Cfg.Nodes))
	}
	c := &CPU{m: m, Node: node}
	m.CPUs = append(m.CPUs, c)
	return c
}

// Reset zeroes all clocks (both streams), traces and statistics, keeping
// the topology. The compute stream becomes current on every device.
func (m *Machine) Reset() {
	for _, d := range m.Devs {
		d.now = 0
		d.copyNow = 0
		d.stream = StreamCompute
		d.trace = nil
		d.inGraph = false
		d.Stats = DeviceStats{}
	}
	for _, c := range m.CPUs {
		c.now = 0
	}
	clear(m.nvlinkFree)
	clear(m.ibFree)
}

// MaxTime returns the largest clock in the machine, across both device
// streams and the host CPUs.
func (m *Machine) MaxTime() float64 {
	t := 0.0
	for _, d := range m.Devs {
		if s := d.Span(); s > t {
			t = s
		}
	}
	for _, c := range m.CPUs {
		if c.now > t {
			t = c.now
		}
	}
	return t
}

// Barrier synchronizes the compute-stream clocks of the given devices to
// their maximum, modelling a blocking synchronization point (e.g. the
// implicit barrier in a collective). Copy streams are not joined: a
// prefetch in flight keeps running through a collective, exactly the
// overlap the pipelined loader exploits. Idle time is recorded on devices
// that arrive early. Barrier reads and advances every given clock, so it
// must run from the orchestrating goroutine, never from inside a
// RunParallel region, and with every device on its compute stream.
func Barrier(devs []*Device) float64 {
	t := 0.0
	for _, d := range devs {
		if n := d.StreamNow(StreamCompute); n > t {
			t = n
		}
	}
	for _, d := range devs {
		d.IdleUntil(t)
	}
	return t
}
