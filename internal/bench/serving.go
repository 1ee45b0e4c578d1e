package bench

import (
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/serve"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
)

// ServingRow is one serving configuration's measured behavior under the
// same open-loop request stream.
type ServingRow struct {
	Mode     string  `json:"mode"`
	MaxBatch int     `json:"max_batch"`
	Rate     float64 `json:"rate_rps"`
	Replicas int     `json:"replicas"`
	// ScaleUsed is the scale the row ran at: the requested one, floored.
	ScaleUsed float64 `json:"scale_used"`

	Served        int     `json:"served"`
	Shed          int     `json:"shed"`
	TimedOut      int     `json:"timed_out"`
	MeanBatch     float64 `json:"mean_batch"`
	Throughput    float64 `json:"throughput_rps"`
	Goodput       float64 `json:"goodput_rps"`
	P50           float64 `json:"p50_latency"`
	P99           float64 `json:"p99_latency"`
	SLOAttainment float64 `json:"slo_attainment"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

// Serving measures online inference serving: the same Poisson request
// stream is replayed against a batch=1 deployment (every request runs
// alone, the way a naive request-per-kernel server would) and against the
// dynamic batcher at increasing MaxBatch, plus a cache-assisted
// configuration. The open-loop rate is set ~2x above the unbatched
// capacity, so the batch=1 server saturates and sheds while the batcher
// amortizes kernel launches and sampling overhead across coalesced
// requests — higher throughput at equal or better tail latency. (The rate
// and deadline track the serving stack's speed: when the forward pass got
// cheaper after the backward-charge split, both tightened to keep the
// batch=1 server past saturation.)
func Serving(cfg Config) ([]ServingRow, error) {
	cfg = cfg.normalize()
	scale := cfg.scaleFloor(1e-3)
	spec := dataset.OgbnProducts.Scaled(scale)
	ds, err := generate(spec)
	if err != nil {
		return nil, err
	}
	replicas := 4
	requests := 4000
	if cfg.Quick {
		replicas = 2
		requests = 1200
	}
	base := serve.Options{
		Rate:     240000,
		Requests: requests,
		MaxDelay: 0.5e-3,
		SLO:      2e-3,
		Deadline: 2e-3,
		QueueCap: 256,
		Fanouts:  []int{5, 5},
		Skew:     1.3,
		Seed:     cfg.Seed,
	}

	cfg.printf("Online serving: dynamic batching vs batch=1 (%s, %d replicas, %.0f rps offered, SLO %.0f ms)\n",
		spec.Name, replicas, base.Rate, base.SLO*1e3)
	cfg.printf("%-14s %6s %6s %6s %8s %11s %10s %10s %8s %6s\n",
		"mode", "served", "shed", "t/out", "batch", "thr (rps)", "p50 (ms)", "p99 (ms)", "SLO %", "cache")

	type variant struct {
		mode      string
		maxBatch  int
		cacheRows int
	}
	variants := []variant{
		{"batch=1", 1, 0},
		{"batch<=8", 8, 0},
		{"batch<=32", 32, 0},
		{"batch<=32+cache", 32, 500},
	}
	if cfg.Quick {
		variants = []variant{{"batch=1", 1, 0}, {"batch<=16", 16, 0}}
	}

	var rows []ServingRow
	for _, v := range variants {
		opts := base
		opts.MaxBatch = v.maxBatch
		opts.CacheRows = v.cacheRows
		// One deployment per variant: a serving replica per GPU of one node.
		mcfg := sim.DGXA100(1)
		mcfg.GPUsPerNode = replicas
		m := sim.NewMachine(mcfg)
		model := gnn.NewSAGE(gnn.Config{
			InDim: ds.Spec.FeatDim, Hidden: 32, Classes: ds.Spec.NumClasses,
			Layers: len(opts.Normalize().Fanouts), Backend: spops.BackendNative, Seed: cfg.Seed,
		})
		s, err := serve.New(m, 0, ds, model, opts)
		if err != nil {
			return nil, err
		}
		m.Reset() // store partitioning and cache fill are one-time setup
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		row := ServingRow{
			Mode: v.mode, MaxBatch: v.maxBatch, Rate: opts.Rate, Replicas: replicas, ScaleUsed: scale,
			Served: res.Served, Shed: res.Shed, TimedOut: res.TimedOut,
			MeanBatch: res.MeanBatch, Throughput: res.Throughput, Goodput: res.Goodput,
			P50: res.P50, P99: res.P99, SLOAttainment: res.SLOAttainment,
		}
		var hits, total float64
		for _, st := range res.PerReplica {
			hits += st.CacheHitRate
			total++
		}
		if v.cacheRows > 0 && total > 0 {
			row.CacheHitRate = hits / total
		}
		rows = append(rows, row)
		cfg.printf("%-14s %6d %6d %6d %8.2f %11.0f %10.3f %10.3f %7.1f%% %5.0f%%\n",
			row.Mode, row.Served, row.Shed, row.TimedOut, row.MeanBatch,
			row.Throughput, row.P50*1e3, row.P99*1e3, 100*row.SLOAttainment,
			100*row.CacheHitRate)
	}
	return rows, nil
}
