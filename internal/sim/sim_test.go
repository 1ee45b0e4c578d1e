package sim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func newTestMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	return NewMachine(DGXA100(nodes))
}

func TestDGXA100Topology(t *testing.T) {
	m := newTestMachine(t, 2)
	if got := len(m.Devs); got != 16 {
		t.Fatalf("devices = %d, want 16", got)
	}
	if got := len(m.CPUs); got != 2 {
		t.Fatalf("cpus = %d, want 2", got)
	}
	d := m.Devs[9]
	if d.Node != 1 || d.Local != 1 || d.ID != 9 {
		t.Errorf("dev 9 = node %d local %d id %d", d.Node, d.Local, d.ID)
	}
	nd := m.NodeDevs(1)
	if len(nd) != 8 || nd[0].ID != 8 {
		t.Errorf("NodeDevs(1) wrong: len=%d first=%d", len(nd), nd[0].ID)
	}
}

func TestValidate(t *testing.T) {
	good := DGXA100(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("Nodes=0 accepted")
	}
	bad = good
	bad.GPUsPerNode = -1
	if err := bad.Validate(); err == nil {
		t.Error("GPUsPerNode=-1 accepted")
	}
	bad = good
	bad.Device.FP32TFLOPS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero FLOPS accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewMachine did not panic on invalid config")
		}
	}()
	NewMachine(bad)
}

func TestKernelRoofline(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	p := m.Cfg.Device

	// Pure compute kernel.
	dt := d.Kernel(KernelCost{FLOPs: 1e12})
	want := p.KernelLaunch + 1e12/(p.FP32TFLOPS*1e12*p.GemmEff)
	if math.Abs(dt-want) > 1e-12 {
		t.Errorf("compute kernel = %g, want %g", dt, want)
	}

	// Memory-bound kernel dominates small compute.
	dt = d.Kernel(KernelCost{FLOPs: 1, StreamBytes: 1e9})
	want = p.KernelLaunch + 1e9/(p.MemBWGBs*1e9*p.MemEff)
	if math.Abs(dt-want) > 1e-12 {
		t.Errorf("memory kernel = %g, want %g", dt, want)
	}

	// Remote traffic uses the NVLink model.
	dt = d.Kernel(KernelCost{RemoteBytes: 1e9, RemoteSegBytes: 4096})
	bw := d.nvlinkEffGBs(4096) * 1e9
	want = p.KernelLaunch + 1e9/bw
	if math.Abs(dt-want) > 1e-12 {
		t.Errorf("remote kernel = %g, want %g", dt, want)
	}
	if d.Stats.Kernels != 3 {
		t.Errorf("kernels = %d, want 3", d.Stats.Kernels)
	}
}

func TestNVLinkBandwidthCurve(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	// Monotone in segment size and saturating below the peak.
	prev := 0.0
	for _, seg := range []float64{4, 8, 16, 32, 64, 128, 256, 1024, 4096} {
		bw := d.nvlinkEffGBs(seg)
		if bw <= prev {
			t.Errorf("bandwidth not increasing at seg %g: %g <= %g", seg, bw, prev)
		}
		if bw >= m.Cfg.Link.NVLinkEffGBs {
			t.Errorf("bandwidth above peak at seg %g: %g", seg, bw)
		}
		prev = bw
	}
	// Paper Figure 8 at 64 B: BusBW ~181 GB/s of payload.
	if bw := d.nvlinkEffGBs(64); bw < 170 || bw > 200 {
		t.Errorf("effective BW(64B) = %g, want ~184", bw)
	}
	if bw := d.nvlinkEffGBs(1024); bw < 0.9*m.Cfg.Link.NVLinkEffGBs {
		t.Errorf("effective BW(1KB) = %g, not near peak", bw)
	}
}

func TestTableILatencyModels(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	// Paper Table I values in microseconds.
	cases := []struct {
		gb      float64
		um, p2p float64
		tolUM   float64
		tolP2P  float64
	}{
		{8, 20.8, 1.35, 2.0, 0.1},
		{16, 29.6, 1.37, 4.5, 0.1},
		{32, 32.5, 1.43, 2.5, 0.1},
		{64, 35.3, 1.51, 1.5, 0.1},
		{128, 35.8, 1.56, 1.0, 0.1},
	}
	for _, c := range cases {
		um := d.UMAccessLatency(c.gb) * 1e6
		p2p := d.P2PAccessLatency(c.gb) * 1e6
		if math.Abs(um-c.um) > c.tolUM {
			t.Errorf("UM latency at %g GB = %.1f us, paper %.1f", c.gb, um, c.um)
		}
		if math.Abs(p2p-c.p2p) > c.tolP2P {
			t.Errorf("P2P latency at %g GB = %.2f us, paper %.2f", c.gb, p2p, c.p2p)
		}
		if um < 10*p2p {
			t.Errorf("UM (%.1f) should be >=10x P2P (%.2f) at %g GB", um, p2p, c.gb)
		}
	}
}

func TestHostCopySharedPCIe(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	dt := d.HostCopy(16e9)
	// 16 GB at 16 GB/s per-GPU share = ~1 s, and the GPU is idle.
	if dt < 0.99 || dt > 1.01 {
		t.Errorf("16GB host copy = %g s, want ~1", dt)
	}
	if d.Stats.IdleSeconds < 0.99 {
		t.Errorf("host copy not counted as idle: %g", d.Stats.IdleSeconds)
	}
	if d.Stats.BusySeconds != 0 {
		t.Errorf("host copy counted as busy: %g", d.Stats.BusySeconds)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m := newTestMachine(t, 1)
	m.Devs[0].busy(1.0, "w")
	m.Devs[3].busy(2.5, "w")
	tm := Barrier(m.NodeDevs(0))
	if tm != 2.5 {
		t.Fatalf("barrier time = %g, want 2.5", tm)
	}
	for _, d := range m.NodeDevs(0) {
		if d.Now() != 2.5 {
			t.Errorf("dev %d at %g after barrier", d.ID, d.Now())
		}
	}
	if m.Devs[0].Stats.IdleSeconds != 1.5 {
		t.Errorf("dev 0 idle = %g, want 1.5", m.Devs[0].Stats.IdleSeconds)
	}
}

func TestCollectiveCosts(t *testing.T) {
	m := newTestMachine(t, 1)
	devs := m.NodeDevs(0)
	bytes := 1e9
	end := HierarchicalAllReduce(m, bytes)
	// Ring allreduce moves 2(n-1)/n*bytes per device: at ~270 GB/s
	// effective that is ~6.5 ms.
	if end < 5e-3 || end > 9e-3 {
		t.Errorf("1GB allreduce over 8 GPUs = %g s, want ~6.5ms", end)
	}
	m.Reset()
	endAG := StartRingAllGather(devs, bytes/8, CollOpts{}).End
	if endAG <= 0 || endAG > end {
		t.Errorf("allgather of shards should be cheaper than allreduce: %g vs %g", endAG, end)
	}

	// Multi-node allreduce is slower than single-node for the same bytes.
	m2 := newTestMachine(t, 4)
	t2 := HierarchicalAllReduce(m2, bytes)
	m.Reset()
	t1 := HierarchicalAllReduce(m, bytes)
	if t2 <= t1 {
		t.Errorf("4-node allreduce (%g) should exceed 1-node (%g)", t2, t1)
	}
}

func TestAlltoAllv(t *testing.T) {
	m := newTestMachine(t, 1)
	devs := m.NodeDevs(0)[:4]
	send := make([][]float64, 4)
	for i := range send {
		send[i] = make([]float64, 4)
		for j := range send[i] {
			if i != j {
				send[i][j] = 1e8
			}
		}
	}
	end := AlltoAllvBytes(devs, send)
	if end <= 0 {
		t.Fatal("alltoallv cost zero")
	}
	for _, d := range devs {
		if d.Now() != end {
			t.Errorf("dev %d not synchronized after alltoallv: %g != %g", d.ID, d.Now(), end)
		}
	}
	// Doubling one device's egress volume increases the time.
	m.Reset()
	send[1][0] *= 10
	send[1][2] *= 10
	send[1][3] *= 10
	end2 := AlltoAllvBytes(devs, send)
	if end2 <= end {
		t.Errorf("heavier alltoallv not slower: %g <= %g", end2, end)
	}
}

func TestUtilizationTrace(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	d.Tracing = true
	d.busy(1.0, "k")
	d.idle(1.0, "wait")
	d.busy(2.0, "k")
	u := Utilization(d.Trace(), 0, 4, 4)
	want := []float64{1, 0, 1, 1}
	for i := range want {
		if math.Abs(u[i]-want[i]) > 1e-9 {
			t.Errorf("util[%d] = %g, want %g", i, u[i], want[i])
		}
	}
	if bf := BusyFraction(d.Trace(), 0, 4); math.Abs(bf-0.75) > 1e-9 {
		t.Errorf("busy fraction = %g, want 0.75", bf)
	}
	// Window narrower than a single interval.
	if bf := BusyFraction(d.Trace(), 1.25, 1.75); bf != 0 {
		t.Errorf("busy fraction inside idle window = %g, want 0", bf)
	}
}

func TestUtilizationProperties(t *testing.T) {
	// Property: utilization buckets are always within [0,1] and total busy
	// time equals the sum over buckets times bucket width.
	f := func(busySpans []uint8) bool {
		var trace []Interval
		t0 := 0.0
		for i, b := range busySpans {
			dt := float64(b%50)/10 + 0.05
			trace = append(trace, Interval{Start: t0, End: t0 + dt, Busy: i%2 == 0})
			t0 += dt
		}
		if t0 == 0 {
			return true
		}
		u := Utilization(trace, 0, t0, 17)
		sum := 0.0
		for _, v := range u {
			if v < 0 || v > 1+1e-9 {
				return false
			}
			sum += v * t0 / 17
		}
		busy := 0.0
		for _, iv := range trace {
			if iv.Busy {
				busy += iv.End - iv.Start
			}
		}
		return math.Abs(sum-busy) < 1e-6*math.Max(1, busy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResetClearsState(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	d.Tracing = true
	d.Kernel(KernelCost{FLOPs: 1e9})
	m.CPUs[0].Gather(1e6)
	if m.MaxTime() == 0 {
		t.Fatal("no time advanced")
	}
	m.Reset()
	if m.MaxTime() != 0 || len(d.Trace()) != 0 || d.Stats.Kernels != 0 {
		t.Error("Reset did not clear clocks/trace/stats")
	}
}

func TestCPUCharging(t *testing.T) {
	m := newTestMachine(t, 1)
	c := m.CPUs[0]
	dt := c.Gather(3e9)
	if math.Abs(dt-1.0) > 1e-9 {
		t.Errorf("3GB random gather at 3 GB/s = %g s, want 1", dt)
	}
	if s := c.Stream(24e9); math.Abs(s-1.0) > 1e-9 {
		t.Errorf("24GB stream = %g s, want 1", s)
	}
	if o := c.Ops(2.5e9); math.Abs(o-1.0) > 1e-9 {
		t.Errorf("2.5G ops = %g s, want 1", o)
	}
	if c.Now() < 2.99 {
		t.Errorf("cpu clock = %g, want ~3", c.Now())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	d.Tracing = true
	d.Kernel(KernelCost{FLOPs: 1e9, Tag: "gemm"})
	d.IdleFor(1e-3, "pcie")
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, m.Devs); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0]["name"] != "gemm" || events[0]["cat"] != "kernel" {
		t.Errorf("first event wrong: %v", events[0])
	}
	if events[1]["cat"] != "idle" {
		t.Errorf("second event should be idle: %v", events[1])
	}
	if dur, _ := events[1]["dur"].(float64); dur < 999 || dur > 1001 {
		t.Errorf("idle duration = %v us, want ~1000", events[1]["dur"])
	}
}

func TestPCIeServerPreset(t *testing.T) {
	cfg := PCIeServer(1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	dgx := DGXA100(1)
	if cfg.Link.NVLinkEffGBs >= dgx.Link.NVLinkEffGBs {
		t.Error("PCIe server peer bandwidth should be far below NVSwitch")
	}
	if cfg.Link.P2PBaseLatency <= dgx.Link.P2PBaseLatency {
		t.Error("PCIe peer latency should exceed NVLink's")
	}
	// Same gather kernel is much slower on the PCIe fabric.
	mDGX := NewMachine(dgx)
	mPCIe := NewMachine(cfg)
	c := KernelCost{RemoteBytes: 1e8, RemoteSegBytes: 512}
	tDGX := mDGX.Devs[0].Kernel(c)
	tPCIe := mPCIe.Devs[0].Kernel(c)
	if tPCIe < 10*tDGX {
		t.Errorf("PCIe gather (%g) should be >=10x DGX gather (%g)", tPCIe, tDGX)
	}
}

func TestKernelUMAndZeroCopyCosts(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	l := m.Cfg.Link

	dt := d.Kernel(KernelCost{UMBytes: 1e9})
	want := m.Cfg.Device.KernelLaunch + 1e9/(l.UMBulkGBs*1e9)
	if math.Abs(dt-want) > 1e-12 {
		t.Errorf("UM kernel = %g, want %g", dt, want)
	}

	dt = d.Kernel(KernelCost{HostZeroCopyBytes: 1e9, HostSegBytes: 512})
	per := l.PCIeGBs / float64(l.GPUsPerSwitch) * 512 / (512 + l.NVLinkHeaderBytes)
	want = m.Cfg.Device.KernelLaunch + 1e9/(per*1e9)
	if math.Abs(dt-want) > 1e-12 {
		t.Errorf("zero-copy kernel = %g, want %g", dt, want)
	}

	// Ordering at equal bytes: P2P < UM < zero-copy host.
	tp := d.Kernel(KernelCost{RemoteBytes: 1e8, RemoteSegBytes: 512})
	tu := d.Kernel(KernelCost{UMBytes: 1e8})
	th := d.Kernel(KernelCost{HostZeroCopyBytes: 1e8, HostSegBytes: 512})
	if !(tp < tu && tu < th) {
		t.Errorf("backing costs not ordered: p2p=%g um=%g host=%g", tp, tu, th)
	}
}
