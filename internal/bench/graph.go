package bench

import (
	"math"
	"runtime"
	"time"

	"wholegraph/internal/dataset"
	"wholegraph/internal/train"
)

// GraphRow reports one cell of the step capture/replay ablation: the same
// training run executed eagerly and with train.Options.CaptureGraph, after
// the capture warm-up, so the graph side is in its replay steady state.
type GraphRow struct {
	Arch  string
	Nodes int
	// EagerEpoch / GraphEpoch: virtual epoch time of a steady-state epoch
	// (graph side: all-replay). Model math is bit-identical either way.
	EagerEpoch, GraphEpoch float64
	Speedup                float64
	// EagerHostNsIter / GraphHostNsIter: measured wall-clock per training
	// iteration, min over interleaved windows. The model math runs on the
	// host either way, so the dispatch saving is a few percent of this
	// number and can drown in machine noise; BenchmarkGraphEpoch{Eager,
	// Replay} in the root package pins the same delta over hundreds of
	// epochs.
	EagerHostNsIter, GraphHostNsIter float64
	// EagerAllocsIter / GraphAllocsIter: measured heap allocations per
	// training iteration over the steady-state epochs. Unlike wall clock
	// this is deterministic: replay skips the tape rebuild, so its
	// allocations drop to buffer rebinding plus kernel-dispatch residue.
	EagerAllocsIter, GraphAllocsIter float64
	// Captures / Replays / Invalidations from the graph run's trainer.
	Captures, Replays, Invalidations int64
	// LossMatch: every epoch's loss was bit-identical between the two runs.
	LossMatch bool
}

// AblationGraph evaluates step capture/replay (train.Options.CaptureGraph):
// the first iteration per loader slot records the step DAG, later
// iterations replay it with one graph launch instead of a kernel launch per
// kernel and with no host-side tape rebuild. Reported per cell: the virtual
// epoch-time win, the measured host ns and allocations per iteration, and a
// bit-identity check of the loss trajectory.
func AblationGraph(cfg Config) ([]GraphRow, error) {
	cfg = cfg.normalize()
	// Host-side counters (wall clock, runtime.MemStats) are process-global:
	// concurrent cells would bleed into each other's measurements.
	cfg.Parallel = false
	cfg.printf("Ablation: step capture/replay vs eager dispatch (ogbn-products)\n")
	cfg.printf("%10s %6s %12s %12s %9s %11s %11s %11s %11s %9s %6s\n",
		"arch", "nodes", "eager", "graph", "speedup",
		"host/iter", "ghost/iter", "allocs/it", "gallocs/it", "cap/rep", "loss")

	type cell struct {
		arch  string
		nodes int
	}
	var cells []cell
	archs := []string{"gcn", "graphsage", "gat"}
	if cfg.Quick {
		archs = []string{"graphsage", "gat"}
	}
	for _, arch := range archs {
		for _, nodes := range []int{1, 2} {
			cells = append(cells, cell{arch, nodes})
		}
	}

	// Host dispatch is a small slice of each iteration's wall clock (the
	// model math runs either way), so ns/iter takes the min over several
	// repetitions — the usual noise-robust estimator — instead of one mean.
	const warmEpochs, measureEpochs, measureReps = 3, 1, 12
	rows := make([]GraphRow, len(cells))
	err := cfg.runCells(len(cells), func(i int, tot *Totals) error {
		c := cells[i]
		ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
		if err != nil {
			return err
		}
		opts := cfg.trainOpts(c.arch)

		type outcome struct {
			losses  []float64
			last    train.EpochStats
			nsIter  float64
			mallocs uint64
			iters   int
			tr      *train.Trainer
		}
		newRun := func(capture bool) (*outcome, error) {
			opts.CaptureGraph = capture
			tr, err := newTrainer(FwWholeGraph, c.nodes, ds, opts)
			if err != nil {
				return nil, err
			}
			o := &outcome{tr: tr, nsIter: math.MaxFloat64}
			for e := 0; e < warmEpochs; e++ {
				o.losses = append(o.losses, tr.RunEpoch().Loss)
			}
			return o, nil
		}
		measure := func(o *outcome) {
			runtime.GC() // don't bill this window for another window's garbage
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for e := 0; e < measureEpochs; e++ {
				o.last = o.tr.RunEpoch()
				o.losses = append(o.losses, o.last.Loss)
			}
			wall := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			iters := measureEpochs * o.tr.ItersPerEpoch()
			o.iters += iters
			o.mallocs += ms1.Mallocs - ms0.Mallocs
			if ns := float64(wall.Nanoseconds()) / float64(iters); ns < o.nsIter {
				o.nsIter = ns
			}
		}

		eager, err := newRun(false)
		if err != nil {
			return err
		}
		graph, err := newRun(true)
		if err != nil {
			return err
		}
		// Interleave eager/graph windows so host-load bursts hit both sides
		// rather than whichever run happened to execute second.
		for rep := 0; rep < measureReps; rep++ {
			measure(eager)
			measure(graph)
		}
		match := len(eager.losses) == len(graph.losses)
		for e := range eager.losses {
			if !match || eager.losses[e] != graph.losses[e] {
				match = false
				break
			}
		}
		tot.Fold(eager.tr)
		tot.Fold(graph.tr)
		gc := graph.tr.GraphStats()
		rows[i] = GraphRow{
			Arch: c.arch, Nodes: c.nodes,
			EagerEpoch: eager.last.EpochTime, GraphEpoch: graph.last.EpochTime,
			Speedup:         eager.last.EpochTime / graph.last.EpochTime,
			EagerHostNsIter: eager.nsIter, GraphHostNsIter: graph.nsIter,
			EagerAllocsIter: float64(eager.mallocs) / float64(eager.iters),
			GraphAllocsIter: float64(graph.mallocs) / float64(graph.iters),
			Captures:        gc.Captures, Replays: gc.Replays, Invalidations: gc.Invalidations,
			LossMatch: match,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		loss := "match"
		if !r.LossMatch {
			loss = "DRIFT"
		}
		cfg.printf("%10s %6d %12s %12s %8.2fx %9.0fns %9.0fns %11.1f %11.1f %4d/%-4d %6s\n",
			r.Arch, r.Nodes, fmtSeconds(r.EagerEpoch), fmtSeconds(r.GraphEpoch), r.Speedup,
			r.EagerHostNsIter, r.GraphHostNsIter, r.EagerAllocsIter, r.GraphAllocsIter,
			r.Captures, r.Replays, loss)
	}
	return rows, nil
}
