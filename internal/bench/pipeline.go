package bench

import (
	"fmt"

	"wholegraph/internal/dataset"
	"wholegraph/internal/train"
)

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
	cfg.printf("Ablation: cross-iteration batch prefetch (GraphSAGE, ogbn-products)\n")
	cfg.printf("%8s %-10s %12s %12s %12s %12s %9s\n",
		"featdim", "fanouts", "sequential", "pipelined", "bound", "saved", "speedup")

	type cell struct {
		dim     int
		fanouts []int
	}
	var cells []cell
	for _, dim := range []int{64, 128, 256} {
		for _, fan := range [][]int{{5, 5}, {10, 10, 10}} {
			cells = append(cells, cell{dim, fan})
		}
	}
	rows := make([]PipelineRow, len(cells))
	err := cfg.runCells(len(cells), func(i int, tot *Totals) error {
		c := cells[i]
		spec := dataset.OgbnProducts.Scaled(cfg.Scale)
		spec.FeatDim = c.dim
		// generate memoizes by name; per-dim variants need distinct names.
		spec.Name = fmt.Sprintf("%s-d%d", spec.Name, c.dim)
		ds, err := generate(spec)
		if err != nil {
			return err
		}
		opts := cfg.trainOpts("graphsage")
		opts.Fanouts = c.fanouts
		// Cross-iteration overlap needs several iterations per epoch; at
		// the harness scales the default batch covers a worker's whole
		// training shard in one iteration, which has nothing to pipeline.
		// Size the batch so each of the 8 workers gets ~4 iterations.
		batch := len(ds.Train) / (8 * 4)
		if batch < 1 {
			batch = 1
		}
		if batch > 8 {
			batch = 8
		}
		opts.Batch = batch
		opts.MaxItersPerEpoch = 8

		epoch := func(pipeline bool) (train.EpochStats, error) {
			opts.Pipeline = pipeline
			tr, err := newTrainer(FwWholeGraph, 1, ds, opts)
			if err != nil {
				return train.EpochStats{}, err
			}
			defer tot.Fold(tr)
			return tr.RunEpoch(), nil
		}
		seq, err := epoch(false)
		if err != nil {
			return err
		}
		pipe, err := epoch(true)
		if err != nil {
			return err
		}

		build := seq.Timing.Sample + seq.Timing.Gather
		bound := build
		if seq.Timing.Train < bound {
			bound = seq.Timing.Train
		}
		if seq.Iters > 0 {
			bound *= float64(seq.Iters-1) / float64(seq.Iters)
		}
		rows[i] = PipelineRow{
			FeatDim: c.dim, Fanouts: fmt.Sprint(c.fanouts),
			SeqEpoch: seq.EpochTime, PipeEpoch: pipe.EpochTime,
			Build: build, Train: seq.Timing.Train,
			Bound:   bound,
			Speedup: seq.EpochTime / pipe.EpochTime,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		cfg.printf("%8d %-10s %12s %12s %12s %12s %8.2fx\n",
			r.FeatDim, r.Fanouts, fmtSeconds(r.SeqEpoch), fmtSeconds(r.PipeEpoch),
			fmtSeconds(r.Bound), fmtSeconds(r.SeqEpoch-r.PipeEpoch), r.Speedup)
	}
	return rows, nil
}
