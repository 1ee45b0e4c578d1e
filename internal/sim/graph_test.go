package sim

import "testing"

// TestGraphReplaySuppressesLaunch pins the cost model of step-graph replay:
// inside a BeginGraphReplay bracket every kernel skips its host launch
// latency, the bracket itself charges one GraphLaunch, and the counters and
// trace intervals record graph execution.
func TestGraphReplaySuppressesLaunch(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	d.Tracing = true
	p := m.Cfg.Device
	cost := KernelCost{StreamBytes: 1e6, Tag: "k"}
	mem := 1e6 / (p.MemBWGBs * 1e9 * p.MemEff)

	t0 := d.Now()
	d.Kernel(cost)
	eager := d.Now() - t0
	if want := p.KernelLaunch + mem; !approx(eager, want) {
		t.Errorf("eager kernel dt %g, want launch+mem %g", eager, want)
	}

	t1 := d.Now()
	if d.InGraphReplay() {
		t.Error("InGraphReplay before bracket")
	}
	d.BeginGraphReplay("step")
	if !d.InGraphReplay() {
		t.Error("InGraphReplay false inside bracket")
	}
	d.Kernel(cost)
	d.Kernel(cost)
	d.EndGraphReplay()
	graph := d.Now() - t1
	if want := p.GraphLaunch + 2*mem; !approx(graph, want) {
		t.Errorf("graph bracket dt %g, want graphlaunch+2*mem %g", graph, want)
	}
	if d.Stats.GraphLaunches != 1 {
		t.Errorf("GraphLaunches = %d, want 1", d.Stats.GraphLaunches)
	}
	if d.Stats.GraphKernels != 2 {
		t.Errorf("GraphKernels = %d, want 2", d.Stats.GraphKernels)
	}

	var graphIvs, plainIvs int
	for _, iv := range d.Trace() {
		if !iv.Busy {
			continue
		}
		if iv.Graph {
			graphIvs++
		} else {
			plainIvs++
		}
	}
	// Bracket: the graph-launch interval plus two kernels; outside: one.
	if graphIvs != 3 {
		t.Errorf("%d graph-flagged busy intervals, want 3", graphIvs)
	}
	if plainIvs != 1 {
		t.Errorf("%d plain busy intervals, want 1", plainIvs)
	}
}

// TestGraphReplayDoesNotNest checks that a bracket opened inside an open
// one panics without charging a second launch, and that an unbalanced
// EndGraphReplay panics.
func TestGraphReplayDoesNotNest(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.Devs[0]
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	d.BeginGraphReplay("outer")
	mustPanic("nested BeginGraphReplay", func() { d.BeginGraphReplay("inner") })
	if !d.InGraphReplay() || d.Stats.GraphLaunches != 1 {
		t.Errorf("after a refused nested bracket: in replay %v, %d launches, want true and 1",
			d.InGraphReplay(), d.Stats.GraphLaunches)
	}
	d.EndGraphReplay()
	mustPanic("unbalanced EndGraphReplay", d.EndGraphReplay)
}

// TestAlltoAllvCrossNodeIB pins the step-level routing of AlltoAllv: device
// sets spanning nodes pay InfiniBand on the crossing hops (and record the
// traffic as IB bytes), while a single-node exchange of the same payload
// stays on NVLink and finishes sooner.
func TestAlltoAllvCrossNodeIB(t *testing.T) {
	send := [][]float64{{0, 1e8}, {1e8, 0}}

	m := newTestMachine(t, 2)
	cross := []*Device{m.NodeDevs(0)[0], m.NodeDevs(1)[0]}
	crossEnd := AlltoAllvBytes(cross, send)
	if crossEnd <= 0 {
		t.Fatal("cross-node alltoallv cost zero")
	}
	for _, d := range cross {
		if d.Stats.IBTxBytes != 1e8 {
			t.Errorf("dev %d IBTxBytes = %g, want 1e8", d.ID, d.Stats.IBTxBytes)
		}
		if d.Stats.NVLinkTxBytes != 0 {
			t.Errorf("dev %d charged NVLink on a cross-node hop", d.ID)
		}
	}

	m2 := newTestMachine(t, 1)
	intra := m2.NodeDevs(0)[:2]
	intraEnd := AlltoAllvBytes(intra, send)
	for _, d := range intra {
		if d.Stats.IBTxBytes != 0 {
			t.Errorf("dev %d charged IB inside one node", d.ID)
		}
		if d.Stats.NVLinkTxBytes != 1e8 {
			t.Errorf("dev %d NVLinkTxBytes = %g, want 1e8", d.ID, d.Stats.NVLinkTxBytes)
		}
	}
	if crossEnd <= intraEnd {
		t.Errorf("cross-node alltoallv (%g) not slower than intra-node (%g)", crossEnd, intraEnd)
	}
}

// approx compares virtual times to within a relative 1e-9 (pure float64
// additions, so this is generous).
func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}
