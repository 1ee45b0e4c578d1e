package train

import (
	"testing"

	"wholegraph/internal/sim"
)

// epochAllocBudget bounds per-iteration steady-state allocations once the
// trainer is warm (tapes, arenas, dedupers, loader scratch all populated by
// the first epoch). The residue per iteration is the backward closures the
// autograd ops record plus a handful of per-epoch slices (shuffled batch
// list, stats) amortized over the epoch — nothing proportional to batch
// size, fanout, or feature width. The seed code allocated hundreds of times
// per iteration (every tensor, neighborhood, hash table, and sort buffer
// was fresh); this test fails tier-1 if that regresses.
const epochAllocBudget = 44 // per iteration

// TestSteadyStateEpochAllocs measures second-and-later epochs of a small
// trainer under serial execution (goroutine fan-out is wall-clock
// machinery, not training-loop churn) and asserts the per-iteration
// allocation budget.
func TestSteadyStateEpochAllocs(t *testing.T) {
	prev := sim.SetParallel(false)
	defer sim.SetParallel(prev)

	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("graphsage")
	opts.Batch = 8 // several iterations per epoch, so per-iter churn shows up
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpoch() // warm-up: populates every pool with this workload's shapes
	tr.RunEpoch()

	iters := tr.ItersPerEpoch()
	if iters == 0 {
		t.Fatal("no iterations per epoch")
	}
	n := testing.AllocsPerRun(5, func() {
		tr.RunEpoch()
	})
	perIter := n / float64(iters)
	t.Logf("steady-state epoch: %.0f allocs (%.1f/iter over %d iters, budget %d/iter)",
		n, perIter, iters, epochAllocBudget)
	if perIter > epochAllocBudget {
		t.Fatalf("steady-state epoch allocated %.1f times per iteration (%d iters), budget %d",
			perIter, iters, epochAllocBudget)
	}
}

// TestSteadyStatePipelinedEpochAllocs holds the pipelined loader to the
// same per-iteration budget as the sequential path: double-buffering the
// batch scratch doubles warm-up allocation but must add zero steady-state
// allocs — prefetch just moves the same builds onto the copy stream.
func TestSteadyStatePipelinedEpochAllocs(t *testing.T) {
	prev := sim.SetParallel(false)
	defer sim.SetParallel(prev)

	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("graphsage")
	opts.Batch = 8
	opts.Pipeline = true
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Pipelined() {
		t.Fatal("trainer did not take the pipelined path")
	}
	tr.RunEpoch() // warm-up: populates both ring slots with this workload's shapes
	tr.RunEpoch()

	iters := tr.ItersPerEpoch()
	if iters == 0 {
		t.Fatal("no iterations per epoch")
	}
	n := testing.AllocsPerRun(5, func() {
		tr.RunEpoch()
	})
	perIter := n / float64(iters)
	t.Logf("steady-state pipelined epoch: %.0f allocs (%.1f/iter over %d iters, budget %d/iter)",
		n, perIter, iters, epochAllocBudget)
	if perIter > epochAllocBudget {
		t.Fatalf("steady-state pipelined epoch allocated %.1f times per iteration (%d iters), budget %d",
			perIter, iters, epochAllocBudget)
	}
}
