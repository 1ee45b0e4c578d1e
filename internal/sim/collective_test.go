package sim

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// analytic hop times for cross-checking the step totals.
func nvHop(m *Machine, b float64) float64 { return nvlinkP2PTime(m, b) }
func ibHop(m *Machine, b float64) float64 { return ibTime(m, b) }

// oneNode returns a one-node machine of g GPUs.
func oneNode(g int) *Machine {
	cfg := DGXA100(1)
	cfg.GPUsPerNode = g
	return NewMachine(cfg)
}

// TestRingTotalsMatchAnalytic pins the step-level engine to the classic
// closed forms on a synchronized single-node ring: AllGather costs
// (n-1)·hop(bytes) and AllReduce 2(n-1)·hop(bytes/n), to float tolerance.
func TestRingTotalsMatchAnalytic(t *testing.T) {
	const bytes = 64e6
	for _, n := range []int{2, 4, 8} {
		m := oneNode(n)
		c := StartRingAllGather(m.Devs, bytes, CollOpts{})
		c.Wait()
		got := c.End
		want := float64(n-1) * nvHop(m, bytes)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("n=%d allgather = %v, analytic %v", n, got, want)
		}

		m2 := oneNode(n)
		got2 := HierarchicalAllReduce(m2, bytes)
		want2 := 2 * float64(n-1) * nvHop(m2, bytes/float64(n))
		if math.Abs(got2-want2) > 1e-12*want2 {
			t.Errorf("n=%d allreduce = %v, analytic %v", n, got2, want2)
		}
	}
}

// TestHierarchicalTotalMatchesAnalytic pins the three-phase multi-node
// AllReduce to its closed form on synchronized clocks: two intra-node rings
// of (g-1)·nv(bytes/g) plus an inter-node ring of 2(nodes-1)·ib(bytes/(g·nodes)).
func TestHierarchicalTotalMatchesAnalytic(t *testing.T) {
	const bytes = 64e6
	for _, nodes := range []int{2, 4} {
		m := NewMachine(DGXA100(nodes))
		g := float64(m.Cfg.GPUsPerNode)
		got := HierarchicalAllReduce(m, bytes)
		want := 2*(g-1)*nvHop(m, bytes/g) +
			2*float64(nodes-1)*ibHop(m, bytes/(g*float64(nodes)))
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("nodes=%d hierarchical = %v, analytic %v", nodes, got, want)
		}
	}
}

// TestHierarchicalSingleNodeBitIdentical: with one node the hierarchical
// AllReduce must run the exact step sequence of the flat ring AllReduce —
// equal completion time bit-for-bit, not just within tolerance.
func TestHierarchicalSingleNodeBitIdentical(t *testing.T) {
	for _, bytes := range []float64{4096, 1e6, 123456789} {
		m1 := NewMachine(DGXA100(1))
		n := len(m1.Devs)
		ready := make([]float64, n)
		ringSteps(m1.Devs, ready, 2*(n-1), bytes/float64(n), StreamCompute, "allreduce")
		flat := joinCompute(m1.Devs, ready)
		m2 := NewMachine(DGXA100(1))
		hier := HierarchicalAllReduce(m2, bytes)
		if flat != hier {
			t.Errorf("bytes=%v: flat ring %v != hierarchical %v", bytes, flat, hier)
		}
	}
}

// TestCrossNodeRingUsesIB is the regression for the pre-engine bug where
// the AllGather priced every hop as NVLink even when the device set spanned
// nodes: a ring across two nodes must pay InfiniBand on the crossing hops —
// far slower than the same ring within one node — and the boundary devices
// must record IB egress.
func TestCrossNodeRingUsesIB(t *testing.T) {
	const bytes = 16e6
	m := NewMachine(DGXA100(2))
	cross := []*Device{m.Devs[6], m.Devs[7], m.Devs[8], m.Devs[9]} // two per node
	crossTime := StartRingAllGather(cross, bytes, CollOpts{}).End

	m2 := NewMachine(DGXA100(1))
	intra := m2.NodeDevs(0)[:4]
	intraTime := StartRingAllGather(intra, bytes, CollOpts{}).End

	if crossTime <= intraTime {
		t.Errorf("cross-node allgather (%v) not slower than intra-node (%v)", crossTime, intraTime)
	}
	// Ring order 6→7→8→9→6: hops 7→8 and 9→6 cross nodes.
	if m.Devs[7].Stats.IBTxBytes == 0 || m.Devs[9].Stats.IBTxBytes == 0 {
		t.Error("node-boundary senders recorded no IB traffic")
	}
	if m.Devs[6].Stats.NVLinkTxBytes == 0 {
		t.Error("intra-node sender recorded no NVLink traffic")
	}
	// Same check for AllReduce, which had the identical bug: two devices,
	// one per node.
	cfg := DGXA100(2)
	cfg.GPUsPerNode = 1
	m3 := NewMachine(cfg)
	HierarchicalAllReduce(m3, bytes)
	if m3.Devs[0].Stats.IBTxBytes == 0 || m3.Devs[1].Stats.IBTxBytes == 0 {
		t.Error("2-device cross-node allreduce recorded no IB traffic")
	}
}

// TestCollectiveOnCopyStream checks stream selection: a collective issued on
// the copy stream advances only copy clocks; the compute stream joins later
// via the returned events, so independent compute can hide the transfer.
func TestCollectiveOnCopyStream(t *testing.T) {
	m := NewMachine(DGXA100(1))
	devs := m.Devs
	c := StartHierarchicalAllReduce(m, 1e6, CollOpts{Stream: StreamCopy, Tag: "grads"})
	for _, d := range devs {
		if d.StreamNow(StreamCompute) != 0 {
			t.Fatalf("device %d compute clock moved to %v during copy-stream collective", d.ID, d.StreamNow(StreamCompute))
		}
		if d.StreamNow(StreamCopy) <= 0 {
			t.Fatalf("device %d copy clock did not advance", d.ID)
		}
	}
	// Overlapping compute shorter than the transfer: the join should land
	// at the collective's end, not after it.
	kern := devs[0].Kernel(KernelCost{FLOPs: 1e6, Tag: "work"})
	if kern >= c.End {
		t.Fatalf("test premise broken: kernel %v not shorter than collective %v", kern, c.End)
	}
	devs[0].WaitEvent(c.Done[0], "grad-sync")
	if got := devs[0].StreamNow(StreamCompute); got != c.Done[0].T {
		t.Errorf("compute joined at %v, want %v", got, c.Done[0].T)
	}
}

// TestLinkContentionSerializes checks the busy-until link model: two
// collectives issued back-to-back share every NVLink egress port, so the
// second must start after the first's transfers release the links rather
// than running at time zero in parallel.
func TestLinkContentionSerializes(t *testing.T) {
	const bytes = 8e6
	m := NewMachine(DGXA100(1))
	solo := StartHierarchicalAllReduce(m, bytes, CollOpts{Stream: StreamCopy})

	m2 := NewMachine(DGXA100(1))
	first := StartHierarchicalAllReduce(m2, bytes, CollOpts{Stream: StreamCopy})
	second := StartHierarchicalAllReduce(m2, bytes, CollOpts{Stream: StreamCopy})
	if first.End != solo.End {
		t.Errorf("first collective end %v, want %v", first.End, solo.End)
	}
	if second.End < 2*solo.End*(1-1e-12) {
		t.Errorf("second collective ended at %v; links not serialized (solo takes %v)", second.End, solo.End)
	}
}

// TestStartAtGates checks per-device start gating: a collective whose
// devices become ready at staggered times cannot finish before the last
// gate plus the transfer work that must follow it.
func TestStartAtGates(t *testing.T) {
	const bytes = 1e6
	m := NewMachine(DGXA100(1))
	base := StartHierarchicalAllReduce(m, bytes, CollOpts{Stream: StreamCopy})

	m2 := NewMachine(DGXA100(1))
	gate := make([]float64, len(m2.Devs))
	const last = 5e-3
	for i := range gate {
		gate[i] = last * float64(i) / float64(len(gate)-1)
	}
	gated := StartHierarchicalAllReduce(m2, bytes, CollOpts{Stream: StreamCopy, StartAt: gate})
	if gated.End <= last {
		t.Errorf("gated collective ended at %v, before the last gate %v", gated.End, last)
	}
	// The ring couples every device within a round, so the run effectively
	// restarts at the last gate — but gates must only delay, never add work.
	if limit := (last + base.End) * (1 + 1e-12); gated.End > limit {
		t.Errorf("gated collective ended at %v, beyond gate+solo time %v", gated.End, last+base.End)
	}
	for i, ev := range gated.Done {
		if ev.T < gate[i] {
			t.Errorf("device %d done at %v before its gate %v", i, ev.T, gate[i])
		}
	}
}

// TestCommTraceAndStats checks the observability satellite: collective
// intervals carry the Comm flag, accrue CommSeconds, and surface in the
// Chrome trace as a "comm" category on the dedicated per-device lane.
func TestCommTraceAndStats(t *testing.T) {
	m := NewMachine(DGXA100(1))
	for _, d := range m.Devs {
		d.Tracing = true
	}
	HierarchicalAllReduce(m, 1e6)
	d0 := m.Devs[0]
	if d0.Stats.CommSeconds <= 0 {
		t.Fatal("no CommSeconds accrued")
	}
	sawComm := false
	for _, iv := range d0.Trace() {
		if iv.Comm {
			sawComm = true
			if !iv.Busy {
				t.Error("comm interval not marked busy")
			}
		}
	}
	if !sawComm {
		t.Fatal("no Comm-flagged interval in trace")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, m.Devs[:1]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"cat":"comm"`) {
		t.Error("chrome trace has no comm category")
	}
	if !strings.Contains(out, `"tid":2`) {
		t.Error("chrome trace has no comms lane (tid 4*local+2)")
	}
}

// TestResetClearsLinkState: after Machine.Reset a collective must cost the
// same as on a fresh machine — leftover link busy-until times would skew
// the next run.
func TestResetClearsLinkState(t *testing.T) {
	const bytes = 4e6
	m := NewMachine(DGXA100(2))
	HierarchicalAllReduce(m, bytes)
	m.Reset()
	after := HierarchicalAllReduce(m, bytes)
	fresh := NewMachine(DGXA100(2))
	want := HierarchicalAllReduce(fresh, bytes)
	if after != want {
		t.Errorf("post-Reset collective %v, fresh machine %v", after, want)
	}
}

// TestBlockingWrappersSynchronize: the blocking entry points and Wait must
// have barrier semantics — all compute clocks equal at the returned time.
func TestBlockingWrappersSynchronize(t *testing.T) {
	send := [][]float64{{0, 1e6, 2e6}, {3e6, 0, 1e6}, {0, 5e5, 0}}
	for name, run := range map[string]func(m *Machine) float64{
		"allgather.Wait": func(m *Machine) float64 {
			c := StartRingAllGather(m.Devs, 2e6, CollOpts{})
			c.Wait()
			return c.End
		},
		"hierarchical": func(m *Machine) float64 { return HierarchicalAllReduce(m, 2e6) },
		"alltoallv":    func(m *Machine) float64 { return AlltoAllvBytes(m.Devs, send) },
	} {
		m := oneNode(3)
		m.Devs[1].Kernel(KernelCost{FLOPs: 1e9, Tag: "skew"})
		end := run(m)
		for _, d := range m.Devs {
			if d.StreamNow(StreamCompute) != end {
				t.Errorf("%s: device %d at %v, want %v", name, d.ID, d.StreamNow(StreamCompute), end)
			}
		}
	}
}

// linkBytes is what the links of a machine carried so far: the NVLink and
// InfiniBand egress bytes summed over every device.
func linkBytes(m *Machine) (b [2]float64) {
	for _, d := range m.Devs {
		b[0] += d.Stats.NVLinkTxBytes
		b[1] += d.Stats.IBTxBytes
	}
	return b
}

// ringBytes is what a ring AllGather of bytes per device moves over NVLink
// and InfiniBand: every device forwards a full contribution to its successor
// in each of n-1 rounds.
func ringBytes(devs []*Device, bytes float64) (b [2]float64) {
	n := len(devs)
	for i, d := range devs {
		if d.Node == devs[(i+1)%n].Node {
			b[0] += float64(n-1) * bytes
		} else {
			b[1] += float64(n-1) * bytes
		}
	}
	return b
}

// hierarchicalBytes is what the hierarchical AllReduce of a bytes-sized
// buffer moves: on each node the reduce-scatter and the allgather ring move
// (g-1)·bytes over NVLink, and the inter-node ring moves 2(nodes-1)/g·bytes
// over InfiniBand.
func hierarchicalBytes(m *Machine, bytes float64) [2]float64 {
	g, nodes := float64(m.Cfg.GPUsPerNode), float64(m.Cfg.Nodes)
	return [2]float64{2 * nodes * (g - 1) * bytes, 2 * (nodes - 1) * bytes / g}
}

// alltoallvBytes is the sum of the off-diagonal sends, split into NVLink
// and InfiniBand by fabric.
func alltoallvBytes(devs []*Device, send [][]float64) (b [2]float64) {
	for i, row := range send {
		for j, v := range row {
			switch {
			case i == j:
			case devs[i].Node == devs[j].Node:
				b[0] += v
			default:
				b[1] += v
			}
		}
	}
	return b
}

// clocks snapshots both stream clocks of every device.
func clocks(m *Machine) [][2]float64 {
	out := make([][2]float64, len(m.Devs))
	for i, d := range m.Devs {
		out[i] = [2]float64{d.StreamNow(StreamCompute), d.StreamNow(StreamCopy)}
	}
	return out
}

// collectiveRun is what one pass of runCollectives observed: every
// completion time and every device's statistics, for comparing two machines.
type collectiveRun struct {
	Ends  []float64
	Done  [][]Event
	Stats []DeviceStats
}

// runCollectives issues every surviving collective on m and checks after each
// that the links carried exactly the bytes the algorithm moves, that no
// stream clock went backwards, and that no device finished before its start
// gate or its stream clock at issue. Two gated collectives are in flight on
// the copy stream at once (the hierarchical AllReduce and the AllGather)
// while the blocking AllReduce and AlltoAllv run on the compute stream.
func runCollectives(t *testing.T, m *Machine, payload float64, send [][]float64, gates []float64) collectiveRun {
	t.Helper()
	var run collectiveRun
	prevBytes := linkBytes(m)
	prev := clocks(m)
	check := func(what string, want [2]float64) {
		t.Helper()
		carried := linkBytes(m)
		for f, fabric := range []string{"NVLink", "InfiniBand"} {
			if got := carried[f] - prevBytes[f]; math.Abs(got-want[f]) > 1e-9*math.Max(1, want[f]) {
				t.Errorf("%s: %s carried %v bytes, the algorithm moves %v", what, fabric, got, want[f])
			}
		}
		prevBytes = carried
		now := clocks(m)
		for i := range now {
			for s := range now[i] {
				if now[i][s] < prev[i][s] {
					t.Errorf("%s: device %d stream %d went back from %v to %v", what, i, s, prev[i][s], now[i][s])
				}
			}
		}
		prev = now
	}
	checkDone := func(what string, c *Collective, issued [][2]float64) {
		t.Helper()
		for i, ev := range c.Done {
			if gates != nil && ev.T < gates[i] {
				t.Errorf("%s: device %d done at %v before its gate %v", what, i, ev.T, gates[i])
			}
			if ev.T < issued[i][c.Stream] {
				t.Errorf("%s: device %d done at %v before its stream clock at issue %v", what, i, ev.T, issued[i][c.Stream])
			}
			if ev.T > c.End {
				t.Errorf("%s: device %d done at %v after the end %v", what, i, ev.T, c.End)
			}
		}
		run.Ends = append(run.Ends, c.End)
		run.Done = append(run.Done, c.Done)
	}

	issued := clocks(m)
	ar := StartHierarchicalAllReduce(m, payload, CollOpts{Stream: StreamCopy, StartAt: gates})
	checkDone("gated allreduce", ar, issued)
	check("gated allreduce", hierarchicalBytes(m, payload))

	issued = clocks(m)
	ag := StartRingAllGather(m.Devs, payload, CollOpts{Stream: StreamCopy, StartAt: gates})
	checkDone("gated allgather", ag, issued)
	check("gated allgather", ringBytes(m.Devs, payload))

	run.Ends = append(run.Ends, HierarchicalAllReduce(m, payload))
	check("blocking allreduce", hierarchicalBytes(m, payload))

	run.Ends = append(run.Ends, AlltoAllvBytes(m.Devs, send))
	check("alltoallv", alltoallvBytes(m.Devs, send))

	ar.Wait()
	ag.Wait()
	check("wait", [2]float64{})
	for _, d := range m.Devs {
		for s, iv := range d.Trace() {
			if iv.End < iv.Start {
				t.Errorf("device %d interval %d %q ends at %v before its start %v", d.ID, s, iv.Tag, iv.End, iv.Start)
			}
		}
		run.Stats = append(run.Stats, d.Stats)
	}
	return run
}

// TestCollectiveConservation checks every surviving collective on one and
// two nodes, ungated and gated, with two collectives in flight: the bytes
// charged on the links equal the bytes the algorithm moves, no clock runs
// backwards, and no device completes before its start gate.
func TestCollectiveConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 2} {
		for _, gated := range []bool{false, true} {
			m := NewMachine(DGXA100(nodes))
			n := len(m.Devs)
			for _, d := range m.Devs {
				d.Tracing = true
			}
			send := make([][]float64, n)
			for i := range send {
				send[i] = make([]float64, n)
				for j := range send[i] {
					send[i][j] = float64(rng.Intn(1 << 20))
				}
			}
			var gates []float64
			if gated {
				gates = make([]float64, n)
				for i := range gates {
					gates[i] = rng.Float64() * 1e-4
				}
			}
			m.Devs[1].Kernel(KernelCost{FLOPs: 1e9, Tag: "skew"})
			runCollectives(t, m, 3e6, send, gates)
		}
	}
}

// FuzzCollectives drives every surviving collective over fuzzer-chosen
// machine shapes, payloads, AlltoAllv byte matrices and start gates: the
// invariants of runCollectives hold, and two fresh machines give identical
// completion times and statistics.
func FuzzCollectives(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint32(1<<20), []byte{1, 2, 3}, []byte{})
	f.Add(uint8(1), uint8(3), uint32(4096), []byte{0, 255, 9, 17, 0, 4}, []byte{5, 0, 200})
	f.Add(uint8(2), uint8(0), uint32(0), []byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, nodes, gpus uint8, payload uint32, matrix, gates []byte) {
		cfg := DGXA100(1 + int(nodes%3))
		cfg.GPUsPerNode = 1 + int(gpus%8)
		n := cfg.Nodes * cfg.GPUsPerNode
		send := make([][]float64, n)
		for i := range send {
			send[i] = make([]float64, n)
			for j := range send[i] {
				if len(matrix) > 0 {
					send[i][j] = float64(matrix[(i*n+j)%len(matrix)]) * 4096
				}
			}
		}
		var gate []float64
		if len(gates) > 0 {
			gate = make([]float64, n)
			for i := range gate {
				gate[i] = float64(gates[i%len(gates)]) * 1e-6
			}
		}
		a := runCollectives(t, NewMachine(cfg), float64(payload), send, gate)
		b := runCollectives(t, NewMachine(cfg), float64(payload), send, gate)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("two fresh machines disagree:\n%+v\n%+v", a, b)
		}
	})
}
