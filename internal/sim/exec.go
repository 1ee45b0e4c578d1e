package sim

import (
	"sync"
	"sync/atomic"
)

// Parallel device execution.
//
// The simulation's concurrency model is ownership with barriers: between two
// barrier points, every Device (and every CPU) is owned by exactly one
// goroutine, which is the only one allowed to advance its clocks — both the
// compute and the copy stream, which are two timelines of one owned device,
// never split across goroutines — append to its trace, or update its stats. Shared allocations (wholemem shards, the
// partitioned graph, generated datasets) are read-only during parallel
// regions; writes to shared tables must target disjoint ranges. Barriers, collectives
// (sim.Barrier, the collective.go entry points, nccl) and Machine.MaxTime touch many
// clocks at once and therefore run only from the orchestrating goroutine,
// outside RunParallel regions.
//
// Under that model, parallel execution is deterministic: each slot's work
// depends only on its own inputs and RNG stream, and reductions (loss sums,
// convergence deltas) are accumulated in slot order after the join, so
// results are bit-identical to running the slots serially.

// parallelOff disables goroutine fan-out when set (zero value = parallelism
// enabled). The inverted sense makes the enabled default the zero value.
var parallelOff atomic.Bool

// SetParallel enables or disables goroutine-parallel execution of RunParallel
// regions and returns the previous setting. Disabling it runs every region
// serially in slot order — the reference path the determinism tests compare
// against. Parallelism is enabled by default.
func SetParallel(on bool) bool {
	return !parallelOff.Swap(!on)
}

// ParallelEnabled reports whether RunParallel fans out to goroutines.
func ParallelEnabled() bool { return !parallelOff.Load() }

// RunParallel invokes fn(slot) for every slot in [0, n), one goroutine per
// slot when parallelism is enabled, serially in slot order otherwise. It
// returns after every slot has finished (a join point suitable to precede a
// Barrier). Each slot must confine its mutations to state it owns — see the
// package concurrency model above. A panic in any slot is re-raised on the
// caller after all slots have completed, lowest slot first.
func RunParallel(n int, fn func(slot int)) {
	if n <= 0 {
		return
	}
	if n == 1 || !ParallelEnabled() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[slot] = r
				}
			}()
			fn(slot)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
