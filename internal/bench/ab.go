package bench

import (
	"fmt"
	"slices"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
)

// The A/B ablations: every row runs a base cell and a copy of it with one
// train.Options field edited, the two in lockstep.

// GraphRow reports one cell of the step capture/replay ablation: the same
// training run executed eagerly and with train.Options.Schedule, after the
// capture warm-up, so the graph side is in its scheduled-replay steady
// state.
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

// AblationGraph evaluates step capture/replay (train.Options.Schedule): the
// first iteration per loader slot records the step DAG, later iterations
// replay it through the whole-step scheduler with one graph launch instead
// of a kernel launch per kernel and with no host-side tape rebuild.
// Reported per cell: the virtual epoch-time win, the measured host ns and
// allocations per iteration, and a bit-identity check of the loss
// trajectory.
func AblationGraph(cfg Config) ([]GraphRow, error) {
	cfg = cfg.normalize()
	// Host-side counters (wall clock, runtime.MemStats) are process-global:
	// concurrent cells would bleed into each other's measurements.
	cfg.Parallel = false
	cfg.printf("Ablation: step capture/replay vs eager dispatch (ogbn-products)\n")
	cfg.printf("%10s %6s %12s %12s %9s %11s %11s %11s %11s %9s %6s\n",
		"arch", "nodes", "eager", "graph", "speedup",
		"host/iter", "ghost/iter", "allocs/it", "gallocs/it", "cap/rep", "loss")

	ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	archs := []string{"gcn", "graphsage", "gat"}
	if cfg.Quick {
		archs = []string{"graphsage", "gat"}
	}
	var cells []cell
	for _, arch := range archs {
		for _, nodes := range []int{1, 2} {
			// Host dispatch is a small slice of each iteration's wall clock
			// (the model math runs either way), so ns/iter takes the min
			// over twelve one-epoch windows — the usual noise-robust
			// estimator — instead of one mean, the two sides' windows
			// interleaved.
			eager := cell{fw: FwWholeGraph, ds: ds, hw: sim.DGXA100(nodes), opts: cfg.trainOpts(arch), warm: 3, epochs: 12, timed: true}
			eager.opts.Schedule = false
			graph := eager
			graph.opts.Schedule = true
			cells = append(cells, eager, graph)
		}
	}
	runs, err := cfg.runGroups(cells, 2)
	if err != nil {
		return nil, err
	}
	var rows []GraphRow
	for i := 0; i < len(cells); i += 2 {
		eager, graph := runs[i], runs[i+1]
		gc := graph.tot.Graph
		r := GraphRow{
			Arch: cells[i].opts.Arch, Nodes: cells[i].hw.Nodes,
			EagerEpoch: eager.last().EpochTime, GraphEpoch: graph.last().EpochTime,
			Speedup:         eager.last().EpochTime / graph.last().EpochTime,
			EagerHostNsIter: eager.nsIter, GraphHostNsIter: graph.nsIter,
			EagerAllocsIter: float64(eager.mallocs) / float64(eager.iters),
			GraphAllocsIter: float64(graph.mallocs) / float64(graph.iters),
			Captures:        gc.Captures, Replays: gc.Replays, Invalidations: gc.Invalidations,
			LossMatch: slices.Equal(eager.losses, graph.losses),
		}
		rows = append(rows, r)
		cfg.printf("%10s %6d %12s %12s %8.2fx %9.0fns %9.0fns %11.1f %11.1f %4d/%-4d %6s\n",
			r.Arch, r.Nodes, fmtSeconds(r.EagerEpoch), fmtSeconds(r.GraphEpoch), r.Speedup,
			r.EagerHostNsIter, r.GraphHostNsIter, r.EagerAllocsIter, r.GraphAllocsIter,
			r.Captures, r.Replays, lossColumn(r.LossMatch))
	}
	return rows, nil
}

// CommsRow reports one cell of the gradient-overlap ablation: the same
// training run with the blocking post-backward AllReduce and with bucketed
// copy-stream AllReduce overlapped into the backward pass.
type CommsRow struct {
	Hidden int
	Nodes  int
	// BlockEpoch / OverlapEpoch: virtual epoch time with the blocking
	// gradient sync and with train.Options.OverlapGrads. Model math is
	// bit-identical either way.
	BlockEpoch, OverlapEpoch float64
	Speedup                  float64
	// NVLinkMB / IBMB: per-link collective traffic of the overlap run
	// (sum over devices), from the DeviceStats link counters.
	NVLinkMB, IBMB float64
	// CommSeconds: total time device streams spent inside collectives
	// during the overlap run (sum over devices).
	CommSeconds float64
}

// AblationOverlapGrads evaluates bucketed gradient-communication overlap
// (train.Options.OverlapGrads): per-layer gradient buckets AllReduce on the
// copy stream while backward still runs, against the blocking sync after
// backward. The sweep crosses model width — which moves the AllReduce from
// latency-bound (where extra per-bucket ring rounds can cost more than the
// overlap hides) to bandwidth-bound — with the node count, which adds the
// InfiniBand stage to every bucket.
func AblationOverlapGrads(cfg Config) ([]CommsRow, error) {
	cfg = cfg.normalize()
	ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	hiddens := []int{64, 256}
	if cfg.Quick {
		hiddens = []int{32, 128}
	}
	var cells []cell
	for _, h := range hiddens {
		for _, nodes := range []int{1, 2} {
			base := cell{fw: FwWholeGraph, ds: ds, hw: sim.DGXA100(nodes), opts: cfg.trainOpts("graphsage")}
			base.opts.Hidden = h
			// Overlap only pays when per-layer backward compute exceeds the
			// per-bucket ring latency, so each worker trains on its whole
			// shard per iteration (batch clamps to the shard size) — tiny
			// batches put every cell in the latency-bound regime where
			// bucketing loses.
			base.opts.Batch = min(max(len(ds.Train)/8, 8), 64)
			base.opts.MaxItersPerEpoch = 2
			base.opts.OverlapGrads = false
			over := base
			over.opts.OverlapGrads = true
			cells = append(cells, base, over)
		}
	}
	runs, err := cfg.runGroups(cells, 2)
	if err != nil {
		return nil, err
	}
	cfg.printf("Ablation: bucketed gradient AllReduce overlap (GraphSAGE, ogbn-products)\n")
	cfg.printf("%7s %6s %12s %12s %9s %10s %8s %10s\n",
		"hidden", "nodes", "blocking", "overlapped", "speedup", "nvlink", "ib", "comm")
	var rows []CommsRow
	for i := 0; i < len(cells); i += 2 {
		block, over := runs[i], runs[i+1]
		r := CommsRow{
			Hidden: cells[i].opts.Hidden, Nodes: cells[i].hw.Nodes,
			BlockEpoch: block.mean(), OverlapEpoch: over.mean(),
			Speedup:  speedup(block, over),
			NVLinkMB: over.tot.NVLinkTxBytes / 1e6, IBMB: over.tot.IBTxBytes / 1e6, CommSeconds: over.tot.CommSeconds,
		}
		rows = append(rows, r)
		cfg.printf("%7d %6d %12s %12s %8.2fx %8.2fMB %6.2fMB %10s\n",
			r.Hidden, r.Nodes, fmtSeconds(r.BlockEpoch), fmtSeconds(r.OverlapEpoch),
			r.Speedup, r.NVLinkMB, r.IBMB, fmtSeconds(r.CommSeconds))
	}
	return rows, nil
}

// PipelineRow reports one cell of the overlap ablation: the same training
// run with and without cross-iteration prefetch on the copy stream.
type PipelineRow struct {
	FeatDim int
	Fanouts string
	// SeqEpoch / PipeEpoch: virtual epoch time without and with the
	// dual-stream batch pipeline. Model math is bit-identical either way.
	SeqEpoch, PipeEpoch float64
	// Build / Train: per-epoch busy time of the batch-build stages
	// (sample + gather) and of the compute stages (forward/backward/step),
	// from the sequential run's stage breakdown.
	Build, Train float64
	// Bound is the best saving overlap can deliver: the smaller of build
	// and train hides entirely behind the larger, except in the first
	// iteration, whose build has nothing to run under.
	Bound   float64
	Speedup float64
}

// AblationPipeline evaluates the dual-stream batch pipeline: while
// iteration i runs forward/backward on the compute stream, the loader
// builds batch i+1 (sample, dedup, gather) on the copy stream. The sweep
// crosses feature width — which moves the workload from compute-bound to
// gather-bound — with sampling fanout, and reports the measured saving next
// to the min(build, train) overlap bound.
func AblationPipeline(cfg Config) ([]PipelineRow, error) {
	cfg = cfg.normalize()
	var cells []cell
	for _, dim := range []int{64, 128, 256} {
		spec := dataset.OgbnProducts.Scaled(cfg.Scale)
		spec.FeatDim = dim
		// generate memoizes by name; per-dim variants need distinct names.
		spec.Name = fmt.Sprintf("%s-d%d", spec.Name, dim)
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, fan := range [][]int{{5, 5}, {10, 10, 10}} {
			seq := cell{fw: FwWholeGraph, ds: ds, opts: cfg.trainOpts("graphsage")}
			seq.opts.Fanouts = fan
			// Cross-iteration overlap needs several iterations per epoch; at
			// the harness scales the default batch covers a worker's whole
			// training shard in one iteration, which has nothing to pipeline.
			// Size the batch so each of the 8 workers gets ~4 iterations.
			seq.opts.Batch = min(max(len(ds.Train)/(8*4), 1), 8)
			seq.opts.MaxItersPerEpoch = 8
			seq.opts.Pipeline = false
			pipe := seq
			pipe.opts.Pipeline = true
			cells = append(cells, seq, pipe)
		}
	}
	runs, err := cfg.runGroups(cells, 2)
	if err != nil {
		return nil, err
	}
	cfg.printf("Ablation: cross-iteration batch prefetch (GraphSAGE, ogbn-products)\n")
	cfg.printf("%8s %-10s %12s %12s %12s %12s %9s\n",
		"featdim", "fanouts", "sequential", "pipelined", "bound", "saved", "speedup")
	var rows []PipelineRow
	for i := 0; i < len(cells); i += 2 {
		seq := runs[i].last()
		build := seq.Timing.Sample + seq.Timing.Gather
		bound := min(build, seq.Timing.Train)
		if seq.Iters > 0 {
			bound *= float64(seq.Iters-1) / float64(seq.Iters)
		}
		r := PipelineRow{
			FeatDim: cells[i].ds.Spec.FeatDim, Fanouts: fmt.Sprint(cells[i].opts.Fanouts),
			SeqEpoch: runs[i].mean(), PipeEpoch: runs[i+1].mean(),
			Build: build, Train: seq.Timing.Train,
			Bound:   bound,
			Speedup: speedup(runs[i], runs[i+1]),
		}
		rows = append(rows, r)
		cfg.printf("%8d %-10s %12s %12s %12s %12s %8.2fx\n",
			r.FeatDim, r.Fanouts, fmtSeconds(r.SeqEpoch), fmtSeconds(r.PipeEpoch),
			fmtSeconds(r.Bound), fmtSeconds(r.SeqEpoch-r.PipeEpoch), r.Speedup)
	}
	return rows, nil
}
