package bench

import (
	"wholegraph/internal/ann"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/infer"
	"wholegraph/internal/serve"
	"wholegraph/internal/spops"
)

// ANNRow is one efSearch setting of the recall-vs-latency sweep: recall@K
// against the exact oracle and the mean single-query virtual latency,
// compared to the brute-force scan of the same embedding table.
type ANNRow struct {
	EfSearch int     `json:"ef_search"`
	Recall   float64 `json:"recall_at_k"`
	// QueryVirtual is the mean virtual seconds of one HNSW query (one
	// charged kernel per query, distances split local/remote by shard).
	QueryVirtual float64 `json:"query_seconds"`
	// Speedup is brute-force over HNSW single-query virtual latency.
	Speedup float64 `json:"speedup_vs_brute"`
}

// ANNServing is the end-to-end retrieval serving row: the sweep's chosen
// efSearch behind the dynamic batcher, recall and tail latency together.
type ANNServing struct {
	EfSearch      int     `json:"ef_search"`
	Rate          float64 `json:"rate_rps"`
	Offered       int     `json:"offered"`
	Served        int     `json:"served"`
	Shed          int     `json:"shed"`
	TimedOut      int     `json:"timed_out"`
	MeanBatch     float64 `json:"mean_batch"`
	Throughput    float64 `json:"throughput_rps"`
	Recall        float64 `json:"recall_at_k"`
	P50           float64 `json:"p50_latency"`
	P99           float64 `json:"p99_latency"`
	SLOAttainment float64 `json:"slo_attainment"`
}

// ANNResult is the abl-ann experiment's full output.
type ANNResult struct {
	Dataset string `json:"dataset"`
	Nodes   int64  `json:"nodes"`
	Dim     int    `json:"dim"`
	// Scale is what the caller asked for; ScaleUsed what actually ran.
	// Below the floor the sweep is meaningless (a brute scan of a few
	// thousand rows is one cheap kernel, so HNSW cannot show its
	// asymptotic win) and the request is clamped up, recorded rather
	// than silent.
	Scale        float64 `json:"scale"`
	ScaleUsed    float64 `json:"scale_used"`
	ScaleClamped bool    `json:"scale_clamped"`
	TopK         int     `json:"topk"`
	M            int     `json:"m"`
	EfConstruct  int     `json:"ef_construction"`
	// EmbedVirtual: full-graph layer-wise inference producing the
	// embeddings. BuildVirtual: parallel HNSW construction over them.
	// BruteVirtual: mean single-query exact scan.
	EmbedVirtual float64    `json:"embed_seconds"`
	BuildVirtual float64    `json:"build_seconds"`
	BruteVirtual float64    `json:"brute_query_seconds"`
	Rows         []ANNRow   `json:"rows"`
	Serving      ANNServing `json:"serving"`
}

// AblationANN measures the ANN retrieval subsystem end to end: GraphSAGE
// embeds every node of ogbn-products layer-wise, an HNSW index is built
// over the embedding table (sharded across the node's 8 GPUs), and an
// efSearch sweep traces the recall-vs-latency frontier against the exact
// brute-force scan — both sides priced per single query through the same
// virtual-time device model, so the speedup column is launch overhead,
// HBM streaming, and NVLink gather traffic, not host wall-clock. A final
// row serves the chosen operating point through the dynamic batcher and
// reports recall@K next to p99.
//
// The model is seeded and untrained: recall is measured against the exact
// oracle over the same embedding table, so embedding quality is
// orthogonal to what this experiment isolates (index structure vs scan).
func AblationANN(cfg Config) (*ANNResult, error) {
	cfg = cfg.normalize()
	// The brute scan must be many times a kernel launch for the
	// comparison to mean anything: floor the scale so the embedding
	// table is ~100k rows (~10k quick).
	floor := 0.04
	if cfg.Quick {
		floor = 4e-3
	}
	scale := cfg.scaleFloor(floor)
	spec := dataset.OgbnProducts.Scaled(scale)
	ds, err := generate(spec)
	if err != nil {
		return nil, err
	}

	hidden := 64
	queries := 512
	efs := []int{8, 16, 32, 64, 128}
	requests := 4000
	if cfg.Quick {
		hidden = 32
		queries = 128
		efs = []int{16, 64}
		requests = 800
	}
	topK := 10

	// Embed every node: full-graph layer-wise inference on the shared
	// store, final-layer dim = the class count.
	store, err := flatStore(ds)
	if err != nil {
		return nil, err
	}
	m := store.Machine
	model := gnn.NewSAGE(gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: hidden, Classes: ds.Spec.NumClasses,
		Layers: 2, Backend: spops.BackendNative, Seed: cfg.Seed,
	})
	emb, err := infer.Embeddings(store, model)
	if err != nil {
		return nil, err
	}
	res := &ANNResult{
		Dataset: spec.Name, Nodes: spec.Nodes, Dim: emb.C,
		Scale: cfg.Scale, ScaleUsed: scale, ScaleClamped: scale != cfg.Scale,
		TopK: topK, EmbedVirtual: m.MaxTime(),
	}

	// Build the index; construction is charged (parallel frozen-round
	// inserts), so MaxTime after a reset is the build's virtual cost.
	m.Reset()
	opts := ann.Options{M: 12, EfConstruction: 100, Seed: cfg.Seed}
	ix, err := ann.Build(store.Comm, emb, opts)
	if err != nil {
		return nil, err
	}
	res.M, res.EfConstruct = ix.Opts.M, ix.Opts.EfConstruction
	res.BuildVirtual = m.MaxTime()

	cfg.printf("ANN retrieval: HNSW vs brute-force scan (%s, %d nodes, dim %d, M=%d efC=%d, %d queries)\n",
		spec.Name, spec.Nodes, emb.C, ix.Opts.M, ix.Opts.EfConstruction, queries)
	cfg.printf("embed %s virtual, index build %s virtual\n",
		fmtSeconds(res.EmbedVirtual), fmtSeconds(res.BuildVirtual))

	// Query set: random nodes; the query vector is the node's own
	// embedding, so the node itself tops both result lists — the standard
	// self-included recall@K.
	rng := cfg.seededRand(909)
	nodes := make([]int64, queries)
	for i := range nodes {
		nodes[i] = rng.Int63n(spec.Nodes)
	}
	devs := store.Comm.Devs

	// Brute-force baseline: one charged full-scan kernel per query,
	// round-robined over the devices; its results are the exact oracle.
	m.Reset()
	exact := make([][]ann.Result, queries)
	var bruteTotal float64
	for i, node := range nodes {
		dev := devs[i%len(devs)]
		before := dev.Now()
		exact[i] = ix.BruteSearch(dev, ix.Vector(node), topK)
		bruteTotal += dev.Now() - before
	}
	res.BruteVirtual = bruteTotal / float64(queries)
	cfg.printf("brute-force scan: %s/query\n", fmtSeconds(res.BruteVirtual))

	cfg.printf("%-9s %10s %12s %9s\n", "efSearch", "recall@10", "query", "speedup")
	for _, ef := range efs {
		m.Reset()
		var recall, total float64
		for i, node := range nodes {
			dev := devs[i%len(devs)]
			before := dev.Now()
			got := ix.Search(dev, ix.Vector(node), topK, ef)
			total += dev.Now() - before
			recall += ann.Recall(got, exact[i])
		}
		row := ANNRow{
			EfSearch:     ef,
			Recall:       recall / float64(queries),
			QueryVirtual: total / float64(queries),
		}
		row.Speedup = res.BruteVirtual / row.QueryVirtual
		res.Rows = append(res.Rows, row)
		cfg.printf("%-9d %10.3f %12s %8.1fx\n",
			row.EfSearch, row.Recall, fmtSeconds(row.QueryVirtual), row.Speedup)
	}

	// Operating point for serving: the narrowest beam reaching the recall
	// target, else the widest measured.
	target := 0.95
	if cfg.Quick {
		target = 0.90
	}
	bestEf := res.Rows[len(res.Rows)-1].EfSearch
	for _, row := range res.Rows {
		if row.Recall >= target {
			bestEf = row.EfSearch
			break
		}
	}

	// End to end: the chosen beam behind the dynamic batcher under a
	// Zipf-skewed open-loop stream, recall and tail latency together.
	sopts := serve.Options{
		Rate:     300000,
		Requests: requests,
		MaxBatch: 16,
		MaxDelay: 0.2e-3,
		SLO:      1e-3,
		Skew:     1.3,
		TopK:     topK,
		EfSearch: bestEf,
		Seed:     cfg.Seed,
	}
	srv, err := serve.NewRetrieval(ix, sopts)
	if err != nil {
		return nil, err
	}
	m.Reset() // measure serving, not the sweep above
	sres, err := srv.Run()
	if err != nil {
		return nil, err
	}
	res.Serving = ANNServing{
		EfSearch: sres.EfSearch, Rate: sopts.Rate,
		Offered: sres.Offered, Served: sres.Served, Shed: sres.Shed, TimedOut: sres.TimedOut,
		MeanBatch: sres.MeanBatch, Throughput: sres.Throughput, Recall: sres.Recall,
		P50: sres.P50, P99: sres.P99, SLOAttainment: sres.SLOAttainment,
	}
	cfg.printf("serving (ef=%d, %.0f rps offered): served %d/%d, batch %.2f, thr %.0f rps, recall@%d %.3f, p50 %s, p99 %s, SLO %.1f%%\n",
		res.Serving.EfSearch, res.Serving.Rate, res.Serving.Served, res.Serving.Offered,
		res.Serving.MeanBatch, res.Serving.Throughput, topK, res.Serving.Recall,
		fmtSeconds(res.Serving.P50), fmtSeconds(res.Serving.P99), 100*res.Serving.SLOAttainment)
	return res, nil
}
