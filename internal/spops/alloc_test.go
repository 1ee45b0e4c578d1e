package spops

import (
	"math/rand"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/tensor"
)

// spmmAllocBudget is the steady-state allocation budget for one SpMM
// forward+backward on a warm arena-backed tape. The residue is the op's one
// backward closure: its inputs live in the node, its norms in the arena.
const spmmAllocBudget = 1

func runSpMMAllocCheck(t *testing.T, be Backend, agg Agg) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 64, 256, 12)
	x := tensor.New(256, 32)
	for i := range x.V {
		x.V[i] = rng.Float32()
	}
	tp := autograd.NewTapeArena(tensor.NewArena())

	step := func() {
		tp.Reset()
		xv := tp.Param(x)
		out := SpMM(nil, be, g, xv, nil, agg)
		tp.Backward(out, tp.NewTensor(out.Value.R, out.Value.C))
	}
	step() // warm the arena with this workload's shapes
	n := testing.AllocsPerRun(10, step)
	t.Logf("SpMM backend %v agg %v: %.1f allocs/run (budget %d)", be, agg, n, spmmAllocBudget)
	if n > spmmAllocBudget {
		t.Fatalf("warm SpMM %v/%v forward+backward allocated %.1f times per run, budget %d",
			be, agg, n, spmmAllocBudget)
	}
}

// TestSpMMWarmWorkspaceAllocs locks in the memory-reuse contract for the
// message-passing hot path: with a warm arena tape, forward+backward stay
// within a small constant allocation budget for every backend and both
// aggregators, so a GC regression in the SpMM pipeline fails tier-1.
func TestSpMMWarmWorkspaceAllocs(t *testing.T) {
	for _, be := range []Backend{BackendNative, BackendDGL, BackendPyG} {
		for _, agg := range []Agg{AggSum, AggMean} {
			runSpMMAllocCheck(t, be, agg)
		}
	}
}
