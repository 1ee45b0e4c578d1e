package bench

import (
	"fmt"
	"slices"

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
	// The fault-prefetch hook predicts the NEXT batch's pages, so each epoch
	// must be several batches wide.
	spec := dataset.OgbnPapers100M.Scaled(cfg.scaleFloor(1e-3))
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
	var cells []cell
	for _, v := range variants {
		// The store is the variant: its byte budgets are finer than
		// train.Options' megabytes, so the cell builds it.
		ds, so := mat, core.StoreOptions{}
		if v.paged {
			ds, so = ooc, core.StoreOptions{
				PagedFeatures: true,
				Feat:          featstore.Options{CacheBytes: featBudget, Policy: v.policy},
				PagedTopo:     true,
				Topo:          topostore.Options{CacheBytes: topoBudget, Policy: v.policy},
			}
		}
		c := cell{fw: FwWholeGraph, ds: ds, opts: cfg.trainOpts("graphsage"), epochs: epochs,
			store: func(m *sim.Machine) (*core.Store, error) { return core.NewStoreOpts(m, 0, ds, so) }}
		c.opts.PrefetchPages = v.prefetch
		// Next-batch fault prefetch needs a next batch: train nodes shard
		// across the node's 8 GPUs (~120 per worker at the scale floor), so
		// force a batch size that gives every worker several iterations per
		// epoch, and measure enough of them for cache steady state.
		c.opts.Batch = 32
		if c.opts.MaxItersPerEpoch > 0 && c.opts.MaxItersPerEpoch < 8 {
			c.opts.MaxItersPerEpoch = 8
		}
		cells = append(cells, c)
	}
	runs, err := cfg.runGroups(cells, 1)
	if err != nil {
		return nil, err
	}
	cfg.printf("topology budget %s (of %s column array), feature budget %s\n",
		fmtBytes(topoBudget), fmtBytes(ooc.Topo.NumEdges()*8), fmtBytes(featBudget))
	cfg.printf("%-21s %12s %12s %12s %9s %9s %9s %8s %6s\n",
		"variant", "epoch", "sample", "final loss", "topo hit", "feat hit", "prefetch", "rejects", "exact")
	var rows []OOCGraphRow
	for i, r := range runs {
		row := OOCGraphRow{
			Variant: variants[i].name, EpochTime: r.last().EpochTime, SampleTime: r.last().Timing.Sample, Losses: r.losses,
			BitIdentical: slices.Equal(r.losses, runs[0].losses),
		}
		topoHit, featHit := "-", "-"
		if variants[i].paged {
			row.TopoHitRate, row.FeatHitRate = r.topo.HitRate(), r.feat.HitRate()
			row.PrefetchHits = r.topo.PrefetchHits + r.feat.PrefetchHits
			row.AdmissionRejects = r.topo.AdmissionRejects + r.feat.AdmissionRejects
			row.TopoResidentBytes, row.TopoCacheBytes = r.topo.ResidentBytes, r.topo.CacheBytes
			topoHit, featHit = fmtPct(row.TopoHitRate), fmtPct(row.FeatHitRate)
		}
		rows = append(rows, row)
		cfg.printf("%-21s %12s %12s %12.4f %9s %9s %9d %8d %6v\n",
			row.Variant, fmtSeconds(row.EpochTime), fmtSeconds(row.SampleTime),
			row.Losses[len(row.Losses)-1], topoHit, featHit,
			row.PrefetchHits, row.AdmissionRejects, row.BitIdentical)
	}
	return rows, nil
}

func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}
