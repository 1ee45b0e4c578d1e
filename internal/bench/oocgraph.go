package bench

import (
	"fmt"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
)

// OOCGraphRow is one row of the out-of-core topology ablation: in-RAM CSR
// against the paged topology+feature stores under LRU, LRU+prefetch, and
// admission+prefetch, all at the same fixed byte budget.
type OOCGraphRow struct {
	Variant    string    // "in-RAM", "paged-lru", "paged+prefetch", "paged+prefetch+admit"
	EpochTime  float64   // virtual seconds, last epoch
	SampleTime float64   // virtual seconds in the sampling phase, last epoch
	Losses     []float64 // per-epoch training loss
	// BitIdentical reports whether every epoch's loss equals the in-RAM
	// baseline's bit-for-bit. Must hold for every variant: paging,
	// prefetch, and admission change only virtual time and residency.
	BitIdentical bool
	// Cache behavior of the paged variants (zero for in-RAM).
	TopoHitRate       float64
	FeatHitRate       float64
	PrefetchHits      int64 // prefetched pages later demanded (topo + feat)
	AdmissionRejects  int64 // pages the admission sketch kept out (topo + feat)
	TopoResidentBytes int64
	TopoCacheBytes    int64
}

// AblationOOCGraph isolates what each out-of-core mechanism buys on the
// papers100M-shaped graph: the in-RAM CSR baseline (same topology and
// features materialized), then the paged stores at a fixed byte budget of
// ~1/4 of the column array / encoded features — first LRU-only, then with
// copy-stream fault prefetch, then with frequency-aware page admission on
// top. Losses are bit-identical across all four by construction; the
// mechanisms may only move virtual epoch time and hit rates.
func AblationOOCGraph(cfg Config) ([]OOCGraphRow, error) {
	cfg = cfg.normalize()
	// The fault-prefetch hook predicts the NEXT batch's pages, so each
	// epoch must be several batches wide; enforce a scale floor — and say
	// so, rather than silently running a different experiment than asked.
	scale := cfg.Scale
	if scale < 1e-3 {
		scale = 1e-3
		cfg.printf("note: requested scale %g is below the 1e-3 floor for this experiment; running at 1e-3\n", cfg.Scale)
	}
	spec := dataset.OgbnPapers100M.Scaled(scale)
	cfg.printf("Out-of-core topology ablation: in-RAM CSR vs paged stores at 1/4 byte budget (%s, GraphSAGE)\n", spec.Name)
	ooc, err := dataset.GenerateOutOfCore(spec)
	if err != nil {
		return nil, err
	}
	// The in-RAM twin: same labels, splits, features, and adjacency as the
	// out-of-core dataset, materialized (only viable at bench scales).
	mat, err := dataset.MaterializeOutOfCore(spec)
	if err != nil {
		return nil, err
	}
	// Fixed byte budgets: a quarter of the data each store serves, so every
	// paged variant runs under the same eviction pressure at any scale.
	topoBudget := ooc.Topo.NumEdges() * 8 / 4
	featBudget := spec.Nodes * int64(spec.FeatDim) * 4 / 4
	prefetch := cfg.Train.PrefetchPages
	if prefetch == 0 {
		prefetch = 16
	}
	epochs := 3
	if cfg.Quick {
		epochs = 2
	}
	variants := []struct {
		name     string
		paged    bool
		prefetch int
		policy   blockcache.Policy
	}{
		{"in-RAM", false, 0, blockcache.PolicyLRU},
		{"paged-lru", true, 0, blockcache.PolicyLRU},
		{"paged+prefetch", true, prefetch, blockcache.PolicyLRU},
		{"paged+prefetch+admit", true, prefetch, blockcache.PolicyAdmit},
	}
	rows := make([]OOCGraphRow, len(variants))
	err = cfg.runCells(len(variants), func(cell int, tot *Totals) error {
		v := variants[cell]
		m := sim.NewMachine(sim.DGXA100(1))
		ds := mat
		so := core.StoreOptions{}
		if v.paged {
			ds = ooc
			so = core.StoreOptions{
				PagedFeatures: true,
				Feat:          featstore.Options{CacheBytes: featBudget, Policy: v.policy},
				PagedTopo:     true,
				Topo:          topostore.Options{CacheBytes: topoBudget, Policy: v.policy},
			}
		}
		store, err := core.NewStoreOpts(m, 0, ds, so)
		if err != nil {
			return err
		}
		opts := cfg.trainOpts("graphsage")
		// The store above is the variant; clear the Config-level paging
		// plumbing (consumed only by train.New) and set this variant's
		// prefetch depth.
		opts.PagedFeatures, opts.PagedTopo = false, false
		opts.PrefetchPages = v.prefetch
		// Next-batch fault prefetch needs a next batch: train nodes shard
		// across the node's 8 GPUs (~120 per worker at the scale floor), so
		// force a batch size that gives every worker several iterations per
		// epoch, and measure enough of them for cache steady state.
		opts.Batch = 32
		if opts.MaxItersPerEpoch > 0 && opts.MaxItersPerEpoch < 8 {
			opts.MaxItersPerEpoch = 8
		}
		tr, err := newStoreTrainer(m, store, opts)
		if err != nil {
			return err
		}
		tr.Stores = []*core.Store{store}
		defer tot.Fold(tr)
		m.Reset() // measure training, not store setup
		row := OOCGraphRow{Variant: v.name}
		for e := 0; e < epochs; e++ {
			st := tr.RunEpoch()
			row.Losses = append(row.Losses, st.Loss)
			row.EpochTime = st.EpochTime
			row.SampleTime = st.Timing.Sample
		}
		if v.paged {
			tst := tr.TopoStoreStats()
			fst := tr.FeatStoreStats()
			row.TopoHitRate = tst.HitRate()
			row.FeatHitRate = fst.HitRate()
			row.PrefetchHits = tst.PrefetchHits + fst.PrefetchHits
			row.AdmissionRejects = tst.AdmissionRejects + fst.AdmissionRejects
			row.TopoResidentBytes = tst.ResidentBytes
			row.TopoCacheBytes = tst.CacheBytes
		}
		rows[cell] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].BitIdentical = lossesEqual(rows[i].Losses, rows[0].Losses)
	}
	cfg.printf("topology budget %s (of %s column array), feature budget %s\n",
		fmtBytes(topoBudget), fmtBytes(ooc.Topo.NumEdges()*8), fmtBytes(featBudget))
	cfg.printf("%-21s %12s %12s %12s %9s %9s %9s %8s %6s\n",
		"variant", "epoch", "sample", "final loss", "topo hit", "feat hit", "prefetch", "rejects", "exact")
	for _, r := range rows {
		topoHit, featHit := "-", "-"
		if r.Variant != "in-RAM" {
			topoHit = fmtPct(r.TopoHitRate)
			featHit = fmtPct(r.FeatHitRate)
		}
		cfg.printf("%-21s %12s %12s %12.4f %9s %9s %9d %8d %6v\n",
			r.Variant, fmtSeconds(r.EpochTime), fmtSeconds(r.SampleTime),
			r.Losses[len(r.Losses)-1], topoHit, featHit,
			r.PrefetchHits, r.AdmissionRejects, r.BitIdentical)
	}
	return rows, nil
}

func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}
