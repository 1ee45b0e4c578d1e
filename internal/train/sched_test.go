package train

import (
	"runtime"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
)

// TestScheduleBitIdentical is the correctness anchor of the whole-step
// scheduler where it has copy-stream work to place: for every architecture,
// on a two-node machine with bucketed gradient overlap (each bucket's
// hierarchical AllReduce a copy-stream node of the step DAG), training with
// Options.Schedule must produce bit-identical losses, accuracies and final
// parameters to the same eager run — the scheduler only re-places
// virtual-time charges, never the host math — while every replay goes
// through the scheduler.
func TestScheduleBitIdentical(t *testing.T) {
	for _, arch := range []string{"gcn", "graphsage", "gat", "gin"} {
		t.Run(arch, func(t *testing.T) {
			opts := smallOpts(arch)
			opts.Batch = 8
			opts.OverlapGrads = true
			eager := opts
			scheduled := opts
			scheduled.Schedule = true
			eStats, eParams, _, _ := graphRun(t, eager, 2, 3)
			sStats, sParams, str, _ := graphRun(t, scheduled, 2, 3)
			compareRuns(t, arch, eStats, sStats, eParams, sParams)
			if gc := str.GraphStats(); gc.Replays == 0 || gc.Scheduled != gc.Replays {
				t.Errorf("%s: expected every replay scheduled, got %+v", arch, gc)
			}
		})
	}
}

// TestScheduleComposes runs the scheduler together with the prefetch
// pipeline and bucketed gradient overlap across two real workers: all
// overlays on, results still bit-identical to the plain eager path.
func TestScheduleComposes(t *testing.T) {
	opts := smallOpts("graphsage")
	opts.Batch = 8
	opts.RealWorkers = 2
	plain := opts
	all := opts
	all.Schedule = true
	all.Pipeline = true
	all.OverlapGrads = true
	pStats, pParams, _, _ := graphRun(t, plain, 1, 3)
	aStats, aParams, atr, _ := graphRun(t, all, 1, 3)
	compareRuns(t, "pipeline+overlap+schedule", pStats, aStats, pParams, aParams)
	if gc := atr.GraphStats(); gc.Replays == 0 || gc.Scheduled != gc.Replays {
		t.Errorf("composed run never scheduled a replay: %+v", gc)
	}
}

// TestScheduleSerialParallelEquivalence checks the scheduled-replay path
// under real worker goroutines (the -race gate) on the attention
// architecture with the prefetch pipeline and gradient overlap both feeding
// the copy stream: stats and device clocks must match the serial reference
// bit-for-bit — each worker's recorder is goroutine-owned like its device
// and tape.
func TestScheduleSerialParallelEquivalence(t *testing.T) {
	run := func(parallel bool) ([]EpochStats, []float64) {
		prev := sim.SetParallel(parallel)
		defer sim.SetParallel(prev)
		opts := smallOpts("gat")
		opts.Batch = 8
		opts.RealWorkers = 3
		opts.Schedule = true
		opts.Pipeline = true
		opts.OverlapGrads = true
		stats, _, tr, m := graphRun(t, opts, 1, 3)
		if gc := tr.GraphStats(); gc.Replays == 0 || gc.Scheduled != gc.Replays {
			t.Errorf("parallel=%v: no scheduled replays: %+v", parallel, gc)
		}
		var clocks []float64
		for _, d := range m.Devs {
			clocks = append(clocks, d.Span())
		}
		return stats, clocks
	}

	prevProcs := runtime.GOMAXPROCS(1)
	serialStats, serialClocks := run(false)
	runtime.GOMAXPROCS(prevProcs)
	parStats, parClocks := run(true)

	for e := range serialStats {
		if serialStats[e] != parStats[e] {
			t.Errorf("epoch %d stats differ:\n serial   %+v\n parallel %+v", e+1, serialStats[e], parStats[e])
		}
	}
	for i := range serialClocks {
		if serialClocks[i] != parClocks[i] {
			t.Errorf("clock %d: serial %v vs parallel %v", i, serialClocks[i], parClocks[i])
		}
	}
}

// TestScheduleTraceAnnotations checks the Chrome-trace surface: a traced
// scheduled run emits busy intervals tagged with their DAG node IDs and
// scheduler-decision spans on the decision lane, and every decision span
// brackets its node's applied charges.
func TestScheduleTraceAnnotations(t *testing.T) {
	opts := smallOpts("graphsage")
	opts.Batch = 8
	opts.Schedule = true
	opts.Trace = true
	m := sim.NewMachine(sim.DGXA100(1))
	tr, err := New(m, smallDataset(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpoch()
	tr.RunEpoch() // replay steady state: scheduler-placed intervals exist
	var tagged, decisions int
	for _, iv := range tr.Worker0Device().Trace() {
		if iv.Decision {
			decisions++
			if iv.Node <= 0 {
				t.Fatalf("decision interval %q without a node ID", iv.Tag)
			}
			if iv.End < iv.Start {
				t.Fatalf("decision interval %q ends before it starts", iv.Tag)
			}
			continue
		}
		if iv.Node > 0 {
			tagged++
		}
	}
	if tagged == 0 {
		t.Error("no busy intervals carry scheduler node IDs")
	}
	if decisions == 0 {
		t.Error("no scheduler-decision intervals recorded")
	}
}

// TestPipelinePagePrefetchBitIdentical enables Options.PrefetchPages under
// Options.Pipeline (the scheduler's pipeline plan orders the ring prefetch,
// the page prefetch one batch further ahead, and the compute): batch
// contents, losses and model state stay bit-identical to the plain
// pipelined paged run, and the prefetched pages actually land as hits.
func TestPipelinePagePrefetchBitIdentical(t *testing.T) {
	// A dataset larger than the 1 MiB caches, so pages churn and the
	// prefetched entries are genuinely new residency.
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.004))
	if err != nil {
		t.Fatal(err)
	}
	paged := smallOpts("graphsage")
	paged.Pipeline = true
	paged.PagedTopo = true
	paged.TopoPageEdges = 256
	paged.TopoCacheMB = 1
	paged.PagedFeatures = true
	paged.FeatPageRows = 64
	paged.FeatCacheMB = 1
	base, _ := runEpochsOn(t, ds, paged, 2)

	pre := paged
	pre.PrefetchPages = 16
	got, tr := runEpochsOn(t, ds, pre, 2)
	for e := range base {
		if got[e].Loss != base[e].Loss || got[e].TrainAcc != base[e].TrainAcc {
			t.Errorf("epoch %d: pipelined page prefetch changed results (loss %v != %v)",
				e, got[e].Loss, base[e].Loss)
		}
	}
	if tr.TopoStoreStats().PrefetchHits+tr.FeatStoreStats().PrefetchHits == 0 {
		t.Error("pipelined page-prefetch run recorded no prefetch hits")
	}
}
