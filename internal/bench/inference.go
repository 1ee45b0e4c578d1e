package bench

import (
	"wholegraph/internal/autograd"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/infer"
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
	Speedup       float64
}

// Inference measures offline-inference throughput: the paper points out
// WholeGraph serves inference too (§I); layer-wise full-graph propagation
// over the shared store computes every embedding once, while the sampled
// pipeline recomputes overlapping neighborhoods batch after batch.
func Inference(cfg Config) ([]InferenceResult, error) {
	cfg = cfg.normalize()
	cfg.printf("Inference: sampled mini-batch vs full-graph layer-wise (GraphSAGE)\n")
	cfg.printf("%-22s %10s %14s %14s %9s\n",
		"dataset", "nodes", "sampled", "full-graph", "speedup")
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
			tp.ResetNoGrad()
			model.Forward(m1.Devs[0], tp, batch, false)
		}
		sampled := m1.Devs[0].Now() * float64(batches) / float64(measure)

		// Full-graph: every rank computes its shard layer-wise; per-device
		// time is the machine span.
		store, err := flatStore(ds)
		if err != nil {
			return nil, err
		}
		eng, err := infer.NewEngine(store, model)
		if err != nil {
			return nil, err
		}
		store.Machine.Reset() // table setup is one-time, like the training store's
		if _, err := eng.Run(); err != nil {
			return nil, err
		}
		full := store.Machine.MaxTime()

		r := InferenceResult{
			Dataset: spec.Name, Nodes: ds.Spec.Nodes,
			Scale: cfg.Scale, ScaleUsed: scale, ScaleClamped: scale != cfg.Scale,
			SampledTime: sampled, FullGraphTime: full,
			Speedup: sampled / full,
		}
		out = append(out, r)
		cfg.printf("%-22s %10d %14s %14s %8.2fx\n",
			r.Dataset, r.Nodes, fmtSeconds(r.SampledTime), fmtSeconds(r.FullGraphTime), r.Speedup)
	}
	return out, nil
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
