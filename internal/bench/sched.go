package bench

import (
	"wholegraph/internal/dataset"
	"wholegraph/internal/train"
)

// SchedRow reports one cell of the whole-step scheduler ablation: the same
// training run in capture/replay steady state, replayed serially (plain
// CaptureGraph) and through the whole-step scheduler (train.Options.
// Schedule), which list-schedules each step's recovered dependency DAG onto
// the compute and copy streams.
type SchedRow struct {
	Arch  string
	Nodes int
	// CapturedEpoch / ScheduledEpoch: mean virtual epoch time over the
	// measured replayed epochs. Model math is bit-identical either way.
	CapturedEpoch, ScheduledEpoch float64
	Speedup                       float64
	// Scheduled counts the scheduled run's scheduler-placed replays.
	Scheduled int64
	// LossMatch: every epoch's loss was bit-identical between the two runs.
	LossMatch bool
}

// AblationSched evaluates the whole-step scheduler against plain
// capture/replay: both sides replay the same captured step, but the
// scheduled side re-places the step's kernel charges by list scheduling —
// a Linear's dX and dW backward GEMMs and sibling branches overlap across
// the two streams — and extends the graph bracket over loss and optimizer.
// The scheduler's serial fallback guarantees scheduled <= captured per
// step; the interesting number is how much the DAG's width buys per
// architecture.
//
// Gradient sync is the blocking AllReduce in every cell, on purpose: with
// Options.OverlapGrads these models' ~100 KB of gradients fit one default
// bucket (ready only when backward ends, so nothing moves), and with a
// BucketBytes that splits them the guarantee above does not hold — on GAT the
// scheduled epoch is slower than the captured one (149.5 vs 149.4 us),
// because the serial fallback does not see the per-bucket AllReduces sharing
// the copy stream with scheduler-placed kernels (ROADMAP.md item 4).
// AblationOverlapGrads covers bucketed sync.
func AblationSched(cfg Config) ([]SchedRow, error) {
	cfg = cfg.normalize()
	cfg.printf("Ablation: whole-step DAG scheduling vs plain capture/replay (ogbn-products)\n")
	cfg.printf("%10s %6s %12s %12s %9s %10s %6s\n",
		"arch", "nodes", "captured", "scheduled", "speedup", "sched-its", "loss")

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
			if cfg.Quick && nodes > 1 && arch != "graphsage" {
				continue
			}
			cells = append(cells, cell{arch, nodes})
		}
	}

	// Two warm epochs capture both loader slots; the reported epoch is the
	// mean over measureEpochs replayed ones, not a single iteration.
	const warmEpochs, measureEpochs = 2, 4
	rows := make([]SchedRow, len(cells))
	err := cfg.runCells(len(cells), func(i int, tot *Totals) error {
		c := cells[i]
		ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
		if err != nil {
			return err
		}
		opts := cfg.trainOpts(c.arch)
		opts.OverlapGrads = false

		run := func(schedule bool) (losses []float64, epoch float64, tr *train.Trainer, err error) {
			opts.CaptureGraph = true
			opts.Schedule = schedule
			tr, err = newTrainer(FwWholeGraph, c.nodes, ds, opts)
			if err != nil {
				return nil, 0, nil, err
			}
			defer tot.Fold(tr)
			for e := 0; e < warmEpochs+measureEpochs; e++ {
				st := tr.RunEpoch()
				losses = append(losses, st.Loss)
				if e >= warmEpochs {
					epoch += st.EpochTime / measureEpochs
				}
			}
			return losses, epoch, tr, nil
		}
		capLosses, capEpoch, _, err := run(false)
		if err != nil {
			return err
		}
		schedLosses, schedEpoch, schedTr, err := run(true)
		if err != nil {
			return err
		}
		match := len(capLosses) == len(schedLosses)
		for e := range capLosses {
			if !match || capLosses[e] != schedLosses[e] {
				match = false
				break
			}
		}
		rows[i] = SchedRow{
			Arch: c.arch, Nodes: c.nodes,
			CapturedEpoch: capEpoch, ScheduledEpoch: schedEpoch,
			Speedup:   capEpoch / schedEpoch,
			Scheduled: schedTr.GraphStats().Scheduled,
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
		cfg.printf("%10s %6d %12s %12s %8.2fx %10d %6s\n",
			r.Arch, r.Nodes, fmtSeconds(r.CapturedEpoch), fmtSeconds(r.ScheduledEpoch),
			r.Speedup, r.Scheduled, loss)
	}
	return rows, nil
}
