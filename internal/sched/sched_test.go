package sched

import (
	"math/rand"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// charge appends a charge of dt seconds to r's list, as the device does while
// it records into it.
func charge(r *Recorder, dt float64, tag string) {
	r.Charges = append(r.Charges, sim.Charge{Dur: dt, Tag: tag})
}

// testOp is a kernel that only names its node.
type testOp string

func (k testOp) Label() string           { return string(k) }
func (testOp) Forward(*autograd.Record)  {}
func (testOp) Backward(*autograd.Record) {}

// forward opens the forward node of a record labelled label that reads the
// values reads (at most two) and writes out.
func forward(r *Recorder, label string, out *tensor.Dense, reads ...*tensor.Dense) {
	rec := &autograd.Record{Kernel: testOp(label), Out: &autograd.Var{Value: out}}
	for i, t := range reads {
		rec.In[i] = &autograd.Var{Value: t}
	}
	r.ForwardNode(rec)
}

// randomDAG fills r with a random step: nTensors buffers, nOps forward
// nodes each reading one or two random buffers and writing one (RAW/WAW
// edges emerge from the last-writer maps), with random charge durations.
func randomDAG(r *Recorder, rng *rand.Rand, nTensors, nOps int) {
	r.Reset()
	bufs := make([]*tensor.Dense, nTensors)
	for i := range bufs {
		bufs[i] = tensor.New(1, 1)
	}
	charge(r, 1e-6, "launch") // root graph-launch cost
	for op := 0; op < nOps; op++ {
		var reads []*tensor.Dense
		for n := rng.Intn(2); len(reads) <= n; {
			reads = append(reads, bufs[rng.Intn(nTensors)])
		}
		forward(r, "op", bufs[rng.Intn(nTensors)], reads...)
		for c, lo := rng.Intn(3), len(r.Charges); len(r.Charges)-lo <= c; {
			charge(r, rng.Float64()*1e-4, "k")
		}
	}
}

// TestScheduleNoTimeTravel is the property test over random DAGs: no node
// starts before any of its dependencies end or before its stream's initial
// clock, nodes on the same lane never overlap, the makespan covers every
// node and never exceeds the serial order, and scheduling is deterministic.
func TestScheduleNoTimeTravel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder()
		randomDAG(r, rng, 2+rng.Intn(6), 1+rng.Intn(40))
		computeFree := rng.Float64() * 1e-3
		copyFree := rng.Float64() * 1e-3
		makespan := r.Schedule(computeFree, copyFree)
		nodes := r.nodes
		var total float64
		for _, nd := range nodes {
			total += nd.Dur
		}
		for i := range nodes {
			nd := &nodes[i]
			free := computeFree
			if nd.Copy {
				free = copyFree
			}
			if nd.Start < free-1e-18 {
				t.Fatalf("seed %d: node %d starts %.18g before its stream's clock %.18g", seed, nd.ID, nd.Start, free)
			}
			for _, dep := range nd.Deps {
				if nd.Start < nodes[dep-1].End-1e-18 {
					t.Fatalf("seed %d: node %d starts %.18g before dep %d ends %.18g",
						seed, nd.ID, nd.Start, dep, nodes[dep-1].End)
				}
			}
			if nd.End > makespan+1e-18 {
				t.Fatalf("seed %d: node %d ends %.18g past makespan %.18g", seed, nd.ID, nd.End, makespan)
			}
		}
		// Per-lane intervals must not overlap.
		for _, lane := range []bool{false, true} {
			var spans [][2]float64
			for i := range nodes {
				if nodes[i].Copy == lane && nodes[i].Dur > 0 {
					spans = append(spans, [2]float64{nodes[i].Start, nodes[i].End})
				}
			}
			for a := range spans {
				for b := a + 1; b < len(spans); b++ {
					lo, hi := spans[a], spans[b]
					if lo[0] > hi[0] {
						lo, hi = hi, lo
					}
					if hi[0] < lo[1]-1e-18 {
						t.Fatalf("seed %d: lane copy=%v overlap: [%g,%g) vs [%g,%g)", seed, lane, lo[0], lo[1], hi[0], hi[1])
					}
				}
			}
		}
		if serialEnd := computeFree + total; makespan > serialEnd+1e-18 {
			t.Fatalf("seed %d: makespan %.18g exceeds serial bound %.18g", seed, makespan, serialEnd)
		}

		// Determinism: the same recorder state re-scheduled from the same
		// clocks reproduces every placement.
		starts := make([]float64, len(nodes))
		copies := make([]bool, len(nodes))
		for i := range nodes {
			starts[i], copies[i] = nodes[i].Start, nodes[i].Copy
		}
		r.Schedule(computeFree, copyFree)
		for i := range nodes {
			if nodes[i].Start != starts[i] || nodes[i].Copy != copies[i] {
				t.Fatalf("seed %d: reschedule moved node %d", seed, nodes[i].ID)
			}
		}
	}
}

// TestScheduleSplitsIndependentWork: two independent heavy ops behind a
// shared producer should land on different streams, beating the serial
// order; the dependent chain must still serialize.
func TestScheduleSplitsIndependentWork(t *testing.T) {
	r := NewRecorder()
	r.Reset()
	a, b, c := tensor.New(1, 1), tensor.New(1, 1), tensor.New(1, 1)
	forward(r, "produce", a)
	charge(r, 1e-4, "k")
	forward(r, "left", b, a)
	charge(r, 5e-4, "k")
	forward(r, "right", c, a)
	charge(r, 5e-4, "k")
	makespan := r.Schedule(0, 0)
	if want := 1e-4 + 5e-4; makespan > want+1e-12 {
		t.Errorf("independent branches did not overlap: makespan %g, want ~%g", makespan, want)
	}
	if r.serial {
		t.Error("scheduler fell back to serial on an overlappable DAG")
	}
	nodes := r.nodes
	if nodes[2].Copy == nodes[3].Copy {
		t.Errorf("left and right branches share a stream (copy=%v)", nodes[2].Copy)
	}
}

// TestApplyAdvancesDeviceToMakespan: applying a schedule replays the
// charges onto the device and joins the compute stream with the makespan.
func TestApplyAdvancesDeviceToMakespan(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	dev := m.Devs[0]
	r := NewRecorder()
	r.Reset()
	a, b, c := tensor.New(1, 1), tensor.New(1, 1), tensor.New(1, 1)
	forward(r, "produce", a)
	charge(r, 1e-4, "k")
	forward(r, "left", b, a)
	charge(r, 5e-4, "k")
	forward(r, "right", c, a)
	charge(r, 5e-4, "k")
	busy0 := dev.Stats.BusySeconds + dev.Stats.CopyBusySeconds
	makespan := r.Schedule(dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy))
	r.Apply(dev)
	if got := dev.StreamNow(sim.StreamCompute); got != makespan {
		t.Errorf("compute stream at %g after Apply, want makespan %g", got, makespan)
	}
	if dev.StreamNow(sim.StreamCopy) > makespan {
		t.Errorf("copy stream ran past the makespan")
	}
	if gained := dev.Stats.BusySeconds + dev.Stats.CopyBusySeconds - busy0; gained < 11e-4-1e-12 {
		t.Errorf("busy seconds gained %g, want the full 1.1ms of charges", gained)
	}
}
