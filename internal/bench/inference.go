package bench

import (
	"wholegraph/internal/analytics"
	"wholegraph/internal/autograd"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/graphclass"
	"wholegraph/internal/infer"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
)

// InferenceResult compares the two ways to embed every node of a graph.
type InferenceResult struct {
	Dataset string
	Nodes   int64
	// Scale is the scale the caller asked for; ScaleUsed is the scale the
	// experiment actually ran at. Requests below the 1e-3 floor (the graph
	// must be many batches wide for the comparison to mean anything) are
	// clamped up, and ScaleClamped records that the substitution happened
	// instead of it being silent.
	Scale        float64
	ScaleUsed    float64
	ScaleClamped bool
	// SampledTime embeds all nodes through the mini-batch pipeline
	// (re-sampling and re-computing shared neighborhoods per batch).
	SampledTime float64
	// FullGraphTime embeds all nodes layer-wise over shared memory.
	FullGraphTime float64
	// PipelinedTime is the layer-wise run with chunked input gathers on the
	// copy stream (infer.Engine.WithChunks): gather c+1 overlaps the
	// forward of chunk c. Outputs are bit-identical to FullGraphTime's run.
	PipelinedTime float64
	Speedup       float64
}

// Inference measures offline-inference throughput: the paper points out
// WholeGraph serves inference too (§I); layer-wise full-graph propagation
// over the shared store computes every embedding once, while the sampled
// pipeline recomputes overlapping neighborhoods batch after batch.
func Inference(cfg Config) ([]InferenceResult, error) {
	cfg = cfg.normalize()
	cfg.printf("Inference: sampled mini-batch vs full-graph layer-wise (GraphSAGE)\n")
	cfg.printf("%-22s %10s %14s %14s %14s %9s\n",
		"dataset", "nodes", "sampled", "full-graph", "pipelined", "speedup")
	// Embedding the whole graph needs the graph to be many batches wide
	// for the comparison to be meaningful.
	scale := cfg.scaleFloor(1e-3)
	specs := []dataset.Spec{
		dataset.OgbnProducts.Scaled(scale),
		dataset.OgbnPapers100M.Scaled(scale),
	}
	if cfg.Quick {
		specs = specs[:1]
	}
	var out []InferenceResult
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		opts := cfg.trainOpts("graphsage")
		mcfg := gnn.Config{
			InDim: ds.Spec.FeatDim, Hidden: opts.Hidden, Classes: ds.Spec.NumClasses,
			Layers: len(opts.Fanouts), Heads: opts.Heads,
			Backend: spops.BackendNative, Seed: cfg.Seed,
		}
		model := gnn.NewSAGE(mcfg)

		// Sampled: embed every node in batches through the loader,
		// charging one device (as an 8-GPU run would per shard; the
		// comparison is per-device work either way).
		store1, err := flatStore(ds)
		if err != nil {
			return nil, err
		}
		m1 := store1.Machine
		ld := core.NewLoader(store1, m1.Devs[0], opts.Fanouts, cfg.Seed)
		// Measure a sample of batches and extrapolate: embedding all nodes
		// batch-by-batch is O(N/B) identical batches.
		nodesPerShard := ds.Spec.Nodes / int64(len(m1.Devs))
		batches := int((nodesPerShard + int64(opts.Batch) - 1) / int64(opts.Batch))
		measure := min(batches, 4)
		ids := make([]int64, opts.Batch)
		for b := 0; b < measure; b++ {
			for i := range ids {
				ids[i] = (int64(b*opts.Batch+i)*2654435761 + 7) % ds.Spec.Nodes
			}
			ids = dedupIDs(ids, ds.Spec.Nodes)
			batch, _ := ld.BuildBatch(ids)
			tp := autograd.NewTape()
			model.Forward(m1.Devs[0], tp, batch, false)
		}
		sampled := m1.Devs[0].Now() * float64(batches) / float64(measure)

		// Full-graph: every rank computes its shard layer-wise; per-device
		// time is the machine span.
		full, err := layerwise(ds, model, 1)
		if err != nil {
			return nil, err
		}
		// Pipelined layer-wise: same computation, input gathers chunked
		// onto the copy stream so they overlap neighbor aggregation.
		pipelined, err := layerwise(ds, model, 4)
		if err != nil {
			return nil, err
		}

		r := InferenceResult{
			Dataset: spec.Name, Nodes: ds.Spec.Nodes,
			Scale: cfg.Scale, ScaleUsed: scale, ScaleClamped: scale != cfg.Scale,
			SampledTime: sampled, FullGraphTime: full, PipelinedTime: pipelined,
			Speedup: sampled / full,
		}
		out = append(out, r)
		cfg.printf("%-22s %10d %14s %14s %14s %8.2fx\n",
			r.Dataset, r.Nodes, fmtSeconds(r.SampledTime), fmtSeconds(r.FullGraphTime),
			fmtSeconds(r.PipelinedTime), r.Speedup)
	}
	return out, nil
}

// layerwise returns the virtual time to embed every node of ds layer-wise on
// a fresh machine, each rank's targets in chunks pipelined pieces (1: not
// pipelined).
func layerwise(ds *dataset.Dataset, model gnn.LayerwiseModel, chunks int) (float64, error) {
	store, err := flatStore(ds)
	if err != nil {
		return 0, err
	}
	eng, err := infer.NewEngine(store, model)
	if err != nil {
		return 0, err
	}
	store.Machine.Reset() // table setup is one-time, like the training store's
	if _, err := eng.WithChunks(chunks).Run(); err != nil {
		return 0, err
	}
	return store.Machine.MaxTime(), nil
}

// dedupIDs replaces duplicate IDs with fresh distinct values.
func dedupIDs(ids []int64, n int64) []int64 {
	seen := make(map[int64]bool, len(ids))
	next := int64(0)
	for i, v := range ids {
		for seen[v] {
			v = (v + 1 + next) % n
			next++
		}
		seen[v] = true
		ids[i] = v
	}
	return ids
}

// AnalyticsRow reports the graph-analytics runs on one dataset.
type AnalyticsRow struct {
	Dataset      string
	PRIterations int
	PRTime       float64
	CCIterations int
	CCTime       float64
	Components   int
}

// Analytics exercises the paper's closing claim that the distributed
// shared-memory store also serves classic sparse graph algorithms: PageRank
// and connected components run over the same partitioned storage the GNN
// pipeline uses, each rank pulling neighbor state through peer access.
func Analytics(cfg Config) ([]AnalyticsRow, error) {
	cfg = cfg.normalize()
	cfg.printf("Graph analytics over the shared store (PageRank d=0.85, label-prop CC)\n")
	cfg.printf("%-22s %8s %12s %8s %12s %12s\n",
		"dataset", "PR iters", "PR time", "CC iters", "CC time", "components")
	specs := cfg.datasets()
	if cfg.Quick {
		specs = specs[:2]
	}
	var rows []AnalyticsRow
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		store, err := flatStore(ds)
		if err != nil {
			return nil, err
		}
		pr, err := analytics.PageRank(store.PG, 0.85, 1e-7, 100)
		if err != nil {
			return nil, err
		}
		cc, err := analytics.ConnectedComponents(store.PG, 200)
		if err != nil {
			return nil, err
		}
		row := AnalyticsRow{
			Dataset:      spec.Name,
			PRIterations: pr.Iterations, PRTime: pr.Time,
			CCIterations: cc.Iterations, CCTime: cc.Time,
			Components: cc.Components,
		}
		rows = append(rows, row)
		cfg.printf("%-22s %8d %12s %8d %12s %12d\n",
			row.Dataset, row.PRIterations, fmtSeconds(row.PRTime),
			row.CCIterations, fmtSeconds(row.CCTime), row.Components)
	}
	return rows, nil
}

// GraphClassResult reports the graph-classification run.
type GraphClassResult struct {
	Graphs        int
	TestAccBefore float64
	TestAccAfter  float64
	// VirtualTime is the device time of the whole training run.
	VirtualTime float64
}

// GraphClass exercises the third GNN task the paper names (§I): classify
// whole small graphs. A GIN trains on disjoint-union batches whose features
// are gathered from shared memory (contiguous per graph — the cheap end of
// Figure 8); topology motifs are the signal, so high accuracy demonstrates
// real structural learning.
func GraphClass(cfg Config) (*GraphClassResult, error) {
	cfg = cfg.normalize()
	spec := graphclass.Spec{
		NumGraphs: 480, MinNodes: 6, MaxNodes: 14,
		FeatDim: 8, NumClasses: 4, TrainFrac: 0.8, Seed: cfg.Seed,
	}
	iters := 160
	if cfg.Quick {
		spec.NumGraphs = 120
		iters = 100
	}
	ds, err := graphclass.Generate(spec)
	if err != nil {
		return nil, err
	}
	m := sim.NewMachine(sim.DGXA100(1))
	store, err := graphclass.NewStore(m, 0, ds)
	if err != nil {
		return nil, err
	}
	m.Reset()
	tr, err := graphclass.New(store, m.Devs[0], graphclass.Options{
		Batch: 32, Layers: 3, Hidden: 24, LR: 0.01, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &GraphClassResult{Graphs: spec.NumGraphs, TestAccBefore: tr.Evaluate(ds.Test)}
	cfg.printf("Graph classification: %d motif graphs, %d classes, GIN encoder\n",
		spec.NumGraphs, spec.NumClasses)
	cfg.printf("%6s %10s %10s\n", "iter", "loss", "test acc")
	cfg.printf("%6d %10s %9.1f%%\n", 0, "-", 100*res.TestAccBefore)
	for it := 1; it <= iters; it++ {
		loss, _ := tr.TrainStep()
		if it%(iters/4) == 0 {
			cfg.printf("%6d %10.4f %9.1f%%\n", it, loss, 100*tr.Evaluate(ds.Test))
		}
	}
	res.TestAccAfter = tr.Evaluate(ds.Test)
	res.VirtualTime = m.MaxTime()
	cfg.printf("total virtual time: %s\n", fmtSeconds(res.VirtualTime))
	return res, nil
}
