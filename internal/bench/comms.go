package bench

import (
	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

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
	cfg.printf("Ablation: bucketed gradient AllReduce overlap (GraphSAGE, ogbn-products)\n")
	cfg.printf("%7s %6s %12s %12s %9s %10s %8s %10s\n",
		"hidden", "nodes", "blocking", "overlapped", "speedup", "nvlink", "ib", "comm")

	type cell struct {
		hidden, nodes int
	}
	var cells []cell
	hiddens := []int{64, 256}
	if cfg.Quick {
		hiddens = []int{32, 128}
	}
	for _, h := range hiddens {
		for _, nodes := range []int{1, 2} {
			cells = append(cells, cell{h, nodes})
		}
	}
	rows := make([]CommsRow, len(cells))
	err := cfg.runCells(len(cells), func(i int, tot *Totals) error {
		c := cells[i]
		ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
		if err != nil {
			return err
		}
		opts := cfg.trainOpts("graphsage")
		opts.Hidden = c.hidden
		// Overlap only pays when per-layer backward compute exceeds the
		// per-bucket ring latency, so each worker trains on its whole shard
		// per iteration (batch clamps to the shard size) — tiny batches put
		// every cell in the latency-bound regime where bucketing loses.
		batch := len(ds.Train) / 8
		if batch < 8 {
			batch = 8
		}
		if batch > 64 {
			batch = 64
		}
		opts.Batch = batch
		opts.MaxItersPerEpoch = 2

		epoch := func(overlap bool) (train.EpochStats, *sim.Machine, error) {
			opts.OverlapGrads = overlap
			tr, err := newTrainer(FwWholeGraph, c.nodes, ds, opts)
			if err != nil {
				return train.EpochStats{}, nil, err
			}
			defer tot.Fold(tr)
			return tr.RunEpoch(), tr.Machine, nil
		}
		block, _, err := epoch(false)
		if err != nil {
			return err
		}
		over, m, err := epoch(true)
		if err != nil {
			return err
		}
		var nvlink, ib, comm float64
		for _, d := range m.Devs {
			nvlink += d.Stats.NVLinkTxBytes
			ib += d.Stats.IBTxBytes
			comm += d.Stats.CommSeconds
		}
		rows[i] = CommsRow{
			Hidden: c.hidden, Nodes: c.nodes,
			BlockEpoch: block.EpochTime, OverlapEpoch: over.EpochTime,
			Speedup:  block.EpochTime / over.EpochTime,
			NVLinkMB: nvlink / 1e6, IBMB: ib / 1e6, CommSeconds: comm,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		cfg.printf("%7d %6d %12s %12s %8.2fx %8.2fMB %6.2fMB %10s\n",
			r.Hidden, r.Nodes, fmtSeconds(r.BlockEpoch), fmtSeconds(r.OverlapEpoch),
			r.Speedup, r.NVLinkMB, r.IBMB, fmtSeconds(r.CommSeconds))
	}
	return rows, nil
}
