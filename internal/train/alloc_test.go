package train

import (
	"testing"

	"wholegraph/internal/sim"
)

// epochAllocBudget bounds per-iteration steady-state allocations once the
// trainer is warm (tapes, arenas, dedupers, loader scratch all populated by
// the first epoch). A recorded op is a value on the tape, so an eager step
// allocates nothing of its own: the residue is a handful of per-epoch
// slices (shuffled batch list, stats) amortized over the epoch — 4
// allocations per 3-iteration epoch — and nothing proportional to batch
// size, fanout, feature width or model depth. The budget is that residue
// plus one per iteration. The seed code allocated hundreds of times per
// iteration (every tensor, neighborhood, hash table, and sort buffer was
// fresh); this test fails tier-1 if that regresses.
const epochAllocBudget = 4.0/3 + 1 // per iteration

// steadyStateAllocs warms a small trainer (two epochs populate every pool
// with this workload's shapes, and both ring slots) and returns the
// allocations per iteration of the epochs after that.
func steadyStateAllocs(t *testing.T, opts Options, parallel bool) float64 {
	t.Helper()
	prev := sim.SetParallel(parallel)
	defer sim.SetParallel(prev)

	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts.Batch = 8 // several iterations per epoch, so per-iter churn shows up
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Pipeline && !tr.Pipelined() {
		t.Fatal("trainer did not take the pipelined path")
	}
	tr.RunEpoch()
	tr.RunEpoch()

	iters := tr.ItersPerEpoch()
	if iters == 0 {
		t.Fatal("no iterations per epoch")
	}
	n := testing.AllocsPerRun(5, func() {
		tr.RunEpoch()
	})
	perIter := n / float64(iters)
	t.Logf("steady-state epoch: %.0f allocs (%.1f/iter over %d iters, budget %.2f/iter)",
		n, perIter, iters, epochAllocBudget)
	if perIter > epochAllocBudget {
		t.Fatalf("steady-state epoch allocated %.1f times per iteration (%d iters), budget %.2f",
			perIter, iters, epochAllocBudget)
	}
	return perIter
}

// TestSteadyStateEpochAllocs measures second-and-later epochs of a small
// trainer under serial execution (goroutine fan-out is wall-clock
// machinery, not training-loop churn) and asserts the per-iteration
// allocation budget.
func TestSteadyStateEpochAllocs(t *testing.T) {
	steadyStateAllocs(t, smallOpts("graphsage"), false)
}

// TestSteadyStatePipelinedEpochAllocs holds the pipelined loader to the
// same per-iteration budget as the sequential path: double-buffering the
// batch scratch doubles warm-up allocation but must add zero steady-state
// allocs — prefetch just moves the same builds onto the copy stream.
func TestSteadyStatePipelinedEpochAllocs(t *testing.T) {
	opts := smallOpts("graphsage")
	opts.Pipeline = true
	steadyStateAllocs(t, opts, false)
}

// TestSteadyStateRunAheadEpochAllocs: hinting an epoch, building its
// batches ahead on a second goroutine and the next epoch's first ones during
// its last step adds nothing — the hint lives in the trainer's scratch and the
// builder starts from a function value and reports on a channel the loader
// keeps — on the sequential and the pipelined loop. (One real worker runs
// inline under sim.RunParallel, so the builders are the only goroutines
// started.)
func TestSteadyStateRunAheadEpochAllocs(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		opts := smallOpts("graphsage")
		opts.Pipeline = pipelined
		inline := steadyStateAllocs(t, opts, false)
		ahead := steadyStateAllocs(t, opts, true)
		// All of an epoch's three builds run ahead: one allocation per such
		// build would read +1 here, a stray object of the runtime's +0.33.
		if ahead-inline >= 0.5 {
			t.Errorf("pipelined=%v: run-ahead epochs allocate %.1f times per iteration, inline epochs %.1f", pipelined, ahead, inline)
		}
	}
}
