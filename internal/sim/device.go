package sim

import "math"

// DeviceStats accumulates op counts for reporting and tests. BusySeconds
// and IdleSeconds cover the compute stream; time charged while the copy
// stream is current accrues to CopyBusySeconds/CopyIdleSeconds instead, so
// the compute totals stay comparable to wall time even when the streams
// overlap.
type DeviceStats struct {
	Kernels         int64
	FLOPs           float64
	LocalBytes      float64
	RemoteBytes     float64
	HostBytes       float64
	AllocatedByte   float64
	BusySeconds     float64
	IdleSeconds     float64
	CopyBusySeconds float64
	CopyIdleSeconds float64
	// Per-link traffic of the collective engine: bytes this device sent
	// over its NVLink egress port and its share of the node's InfiniBand
	// NIC, plus the total time its streams spent inside collectives
	// (commBusy intervals on either stream).
	NVLinkTxBytes float64
	IBTxBytes     float64
	CommSeconds   float64
	// Step-graph replay accounting: GraphLaunches counts whole-graph
	// launches (each charging GraphLaunch once), GraphKernels counts the
	// kernels that executed inside a replay with their per-kernel launch
	// overhead suppressed.
	GraphLaunches int64
	GraphKernels  int64
}

// Device is one simulated GPU with two virtual timelines: a compute
// stream and a copy stream (see stream.go). All methods advance the
// currently selected stream's clock; none of them are safe for concurrent
// use on the same device. Under RunParallel, each device — both its
// streams — is owned by exactly one goroutine between barriers (see
// exec.go); distinct devices may be driven concurrently because a device's
// clocks, trace and stats are touched only by its owner.
type Device struct {
	ID    int // global device index
	Node  int // machine node index
	Local int // index within the node

	m       *Machine
	now     float64    // compute-stream clock
	copyNow float64    // copy-stream clock
	stream  StreamKind // stream that charges currently land on
	trace   []Interval
	// inGraph is set while a captured step graph is replaying on this
	// device (see graph.go): kernels skip their launch overhead and busy
	// intervals are flagged for the trace.
	inGraph bool
	// Tracing controls whether busy/idle intervals are recorded (needed
	// only for utilization plots; costs memory on long runs).
	Tracing bool
	Stats   DeviceStats
	// recording, when non-nil, is the list busy-time charges are appended
	// to instead of reaching a timeline (see stage.go); twinOf is non-nil on
	// a staging twin. Either leaves the device without a timeline.
	recording *[]Charge
	twinOf    *Device
}

// RecordDecision appends a scheduler-decision annotation covering [start,
// end) to the trace (no clock movement): the span the list scheduler
// reserved for DAG node id. No-op unless Tracing.
func (d *Device) RecordDecision(start, end float64, tag string, id int) {
	if !d.Tracing {
		return
	}
	d.trace = append(d.trace, Interval{Start: start, End: end, Tag: tag, Stream: d.stream, Node: id, Decision: true})
}

// Machine returns the machine this device belongs to.
func (d *Device) Machine() *Machine { return d.m }

// Now returns the current stream's virtual clock in seconds.
func (d *Device) Now() float64 {
	d.mustHaveTimeline()
	if d.stream == StreamCopy {
		return d.copyNow
	}
	return d.now
}

// clock returns the current stream's clock for advancing.
func (d *Device) clock() *float64 {
	if d.stream == StreamCopy {
		return &d.copyNow
	}
	return &d.now
}

// busy charges dt seconds of busy time that counts no op.
func (d *Device) busy(dt float64, tag string) { d.charge(Charge{Dur: dt, Tag: tag, Graph: d.inGraph}) }

// commBusy advances the current stream by dt seconds of communication busy
// time: busy, but the interval is flagged as a collective transfer (its own
// Chrome-trace lane) and accrues to Stats.CommSeconds.
func (d *Device) commBusy(dt float64, tag string) {
	d.mustHaveTimeline()
	if dt > 0 {
		d.advance(dt, Interval{Busy: true, Comm: true, Tag: tag})
		d.Stats.CommSeconds += dt
	}
}

// idle advances the current stream by dt seconds of idle (waiting) time.
func (d *Device) idle(dt float64, tag string) {
	d.mustHaveTimeline()
	if dt > 0 {
		d.advance(dt, Interval{Tag: tag})
	}
}

// advance moves the current stream's clock dt seconds on, accrues them to
// the stream's busy or idle seconds as iv.Busy says, and traces iv over them.
func (d *Device) advance(dt float64, iv Interval) {
	clk := d.clock()
	if d.Tracing {
		iv.Start, iv.End, iv.Stream = *clk, *clk+dt, d.stream
		d.trace = append(d.trace, iv)
	}
	*clk += dt
	switch onCopy := d.stream == StreamCopy; {
	case iv.Busy && onCopy:
		d.Stats.CopyBusySeconds += dt
	case iv.Busy:
		d.Stats.BusySeconds += dt
	case onCopy:
		d.Stats.CopyIdleSeconds += dt
	default:
		d.Stats.IdleSeconds += dt
	}
}

// IdleUntil advances the current stream's clock to t (if in the future) as
// idle time.
func (d *Device) IdleUntil(t float64) {
	if t > d.Now() {
		d.idle(t-d.Now(), "wait")
	}
}

// IdleFor advances the clock by dt seconds of idle time, modelling the GPU
// waiting on an external producer (host sampling, PCIe copy, network).
func (d *Device) IdleFor(dt float64, tag string) { d.idle(dt, tag) }

// nvlinkEffGBs returns the achievable payload bandwidth (GB/s) for the
// remote bytes of a gather with the given contiguous segment size. The
// per-segment header overhead reproduces Figure 8 of the paper: bandwidth
// grows with segment size and saturates once segments dwarf the header.
func (d *Device) nvlinkEffGBs(segBytes float64) float64 {
	l := d.m.Cfg.Link
	if segBytes <= 0 {
		segBytes = 4
	}
	return l.NVLinkEffGBs * segBytes / (segBytes + l.NVLinkHeaderBytes)
}

// KernelCost describes one kernel for charging purposes. Zero-value fields
// cost nothing.
type KernelCost struct {
	// FLOPs of dense arithmetic.
	FLOPs float64
	// StreamBytes of sequential local-memory traffic.
	StreamBytes float64
	// RandBytes of random-access local-memory traffic.
	RandBytes float64
	// RemoteBytes of peer-GPU traffic over NVLink (P2P loads/stores
	// issued from inside the kernel).
	RemoteBytes float64
	// RemoteSegBytes is the contiguous segment size of the remote
	// accesses; it selects the point on the Figure 8 bandwidth curve.
	RemoteSegBytes float64
	// UMBytes of traffic to non-resident Unified Memory (page-fault
	// migration path), for UM-backed allocations.
	UMBytes float64
	// HostZeroCopyBytes of traffic to pinned host memory accessed
	// directly from the kernel over the device's PCIe share, with
	// HostSegBytes contiguity.
	HostZeroCopyBytes float64
	HostSegBytes      float64
	// Tag labels the busy interval in utilization traces.
	Tag string
}

// Kernel charges one kernel launch using a roofline model: launch overhead
// plus the maximum of the compute time and each class of memory time. Local
// and remote traffic overlap with compute (the slowest resource bounds the
// kernel), which matches how a gather kernel saturates NVLink regardless of
// its modest arithmetic.
func (d *Device) Kernel(c KernelCost) float64 {
	p := d.m.Cfg.Device
	tc := c.FLOPs / (p.FP32TFLOPS * 1e12 * p.GemmEff)
	tm := c.StreamBytes / (p.MemBWGBs * 1e9 * p.MemEff)
	tr := c.RandBytes / (p.MemBWGBs * 1e9 * p.RandMemEff)
	tp := 0.0
	if c.RemoteBytes > 0 {
		tp = c.RemoteBytes / (d.nvlinkEffGBs(c.RemoteSegBytes) * 1e9)
	}
	l := d.m.Cfg.Link
	tu := 0.0
	if c.UMBytes > 0 {
		tu = c.UMBytes / (l.UMBulkGBs * 1e9)
	}
	th := 0.0
	if c.HostZeroCopyBytes > 0 {
		seg := c.HostSegBytes
		if seg <= 0 {
			seg = 4
		}
		per := l.PCIeGBs / float64(l.GPUsPerSwitch) * seg / (seg + l.NVLinkHeaderBytes)
		th = c.HostZeroCopyBytes / (per * 1e9)
	}
	launch := p.KernelLaunch
	if d.inGraph {
		// Inside a graph replay the kernel was baked into the captured
		// graph: no per-kernel host dispatch, the step paid GraphLaunch
		// once at BeginGraphReplay.
		launch = 0
	}
	dt := launch + math.Max(math.Max(math.Max(tc, tm), math.Max(tr, tp)), math.Max(tu, th))
	tag := c.Tag
	if tag == "" {
		tag = "kernel"
	}
	d.charge(Charge{Dur: dt, Tag: tag, Graph: d.inGraph, Kernels: 1, FLOPs: c.FLOPs,
		LocalBytes: c.StreamBytes + c.RandBytes, RemoteBytes: c.RemoteBytes + c.UMBytes, HostBytes: c.HostZeroCopyBytes})
	return dt
}

// Gemm charges a dense [m x k] * [k x n] matrix multiply.
func (d *Device) Gemm(m, n, k int, tag string) float64 {
	fl := 2 * float64(m) * float64(n) * float64(k)
	by := 4 * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n))
	return d.Kernel(KernelCost{FLOPs: fl, StreamBytes: by, Tag: tag})
}

// Malloc charges a cudaMalloc of the given size and returns its duration.
func (d *Device) Malloc(bytes float64) float64 {
	p := d.m.Cfg.Device
	dt := p.MallocBase + p.MallocPerGB*bytes/1e9
	d.charge(Charge{Dur: dt, Tag: "malloc", Graph: d.inGraph, AllocatedByte: bytes})
	return dt
}

// HostCopy charges a PCIe transfer between host and this device. The GPU's
// compute engines are idle during the copy (nvidia-smi reports 0%
// utilization), which is how the baseline frameworks lose their time. The
// PCIe switch uplink is shared by GPUsPerSwitch devices; the paper's own
// analysis uses the resulting static per-GPU share (16 GB/s on DGX-A100),
// and so do we.
func (d *Device) HostCopy(bytes float64) float64 {
	l := d.m.Cfg.Link
	per := l.PCIeGBs / float64(l.GPUsPerSwitch)
	dt := l.PCIeLatency + bytes/(per*1e9)
	d.idle(dt, "pcie")
	d.Stats.HostBytes += bytes
	return dt
}

// P2PAccessLatency returns the latency in seconds of one dependent GPUDirect
// peer access over a working set of the given total size (Table I model).
func (d *Device) P2PAccessLatency(workingSetGB float64) float64 {
	l := d.m.Cfg.Link
	return l.P2PBaseLatency + l.P2PLatencyPerGB*workingSetGB
}

// UMAccessLatency returns the latency in seconds of one dependent Unified
// Memory access (page-fault service) over a working set of the given size.
// Growth saturates as the fault path cost dominates (Table I model).
func (d *Device) UMAccessLatency(workingSetGB float64) float64 {
	l := d.m.Cfg.Link
	g := workingSetGB - 8
	if g < 0 {
		g = 0
	}
	return l.UMBaseLatency + l.UMExtraLatency*(1-math.Exp(-g/l.UMSaturationGB))
}

// ChaseP2P charges n dependent peer accesses (a pointer chase) and returns
// the total time; used by the Table I microbenchmark.
func (d *Device) ChaseP2P(n int, workingSetGB float64) float64 {
	dt := float64(n) * d.P2PAccessLatency(workingSetGB)
	d.busy(dt, "chase-p2p")
	return dt
}

// ChaseUM charges n dependent Unified Memory accesses.
func (d *Device) ChaseUM(n int, workingSetGB float64) float64 {
	dt := float64(n) * d.UMAccessLatency(workingSetGB)
	d.busy(dt, "chase-um")
	return dt
}

// CPU is the host executor of one node. Baseline (host-memory) pipelines
// charge their sampling and gathering here. Like a Device, a CPU is owned
// by one goroutine between barriers; pipelines needing concurrent host
// executors register extras with Machine.AddCPU.
type CPU struct {
	Node int

	m   *Machine
	now float64
}

// Now returns the CPU's virtual clock in seconds.
func (c *CPU) Now() float64 { return c.now }

// SetNow moves the CPU clock forward to t if t is in the future.
func (c *CPU) SetNow(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Advance adds dt seconds of host work and returns dt.
func (c *CPU) Advance(dt float64) float64 {
	if dt > 0 {
		c.now += dt
	}
	return dt
}

// Gather charges a random gather of the given bytes from host memory.
func (c *CPU) Gather(bytes float64) float64 {
	return c.Advance(bytes / (c.m.Cfg.CPU.GatherGBs * 1e9))
}

// Stream charges sequential host-memory traffic of the given bytes.
func (c *CPU) Stream(bytes float64) float64 {
	return c.Advance(bytes / (c.m.Cfg.CPU.MemBWGBs * 1e9))
}

// Ops charges n generic scalar operations of host code.
func (c *CPU) Ops(n float64) float64 {
	return c.Advance(n / c.m.Cfg.CPU.ScalarOpsPerSec)
}
