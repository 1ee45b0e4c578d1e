// Command wgtrain trains a GNN on a synthetic evaluation graph with the
// WholeGraph pipeline or one of the host-memory baselines, printing
// per-epoch virtual timings, phase breakdowns and accuracy.
//
// Usage:
//
//	wgtrain -dataset ogbn-products -scale 0.001 -model graphsage -epochs 10
//	wgtrain -framework dgl -model gat -batch 64 -fanouts 5,5 -hidden 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wholegraph"
)

func main() {
	var (
		dsName    = flag.String("dataset", "ogbn-products", "dataset: ogbn-products, ogbn-papers100M, Friendster, UK_domain")
		scale     = flag.Float64("scale", 1e-3, "dataset scale factor")
		model     = flag.String("model", "graphsage", "model: gcn, graphsage, gat, gin")
		framework = flag.String("framework", "wholegraph", "pipeline: wholegraph, dgl, pyg")
		nodes     = flag.Int("nodes", 1, "simulated DGX-A100 nodes")
		epochs    = flag.Int("epochs", 10, "training epochs")
		batch     = flag.Int("batch", 64, "mini-batch size per GPU")
		fanoutStr = flag.String("fanouts", "5,5", "per-layer sample counts")
		hidden    = flag.Int("hidden", 32, "hidden size")
		heads     = flag.Int("heads", 4, "GAT attention heads")
		lr        = flag.Float64("lr", 0.01, "Adam learning rate")
		dropout   = flag.Float64("dropout", 0.3, "dropout probability")
		seed      = flag.Int64("seed", 1, "random seed")
		evalEvery = flag.Int("eval-every", 1, "epochs between validation runs (0 = never)")
		loadPath  = flag.String("load", "", "load a dataset saved with wggen -save instead of generating")
		weighted  = flag.Bool("weighted", false, "attach synthetic edge weights (weighted aggregation)")
		pipeline  = flag.Bool("pipeline", false, "overlap batch building with training on each device's copy stream (WholeGraph only; identical math)")
		cacheRows = flag.Int("cache-rows", 0, "per-worker hot-node feature cache size in rows (WholeGraph only; 0 = no cache)")
		overlapG  = flag.Bool("overlap-grads", false, "overlap bucketed gradient AllReduce with backward on the copy stream (WholeGraph only; identical math)")
		captureG  = flag.Bool("capture-graph", false, "capture the training step per loader slot and replay it graph-launch style (WholeGraph only; identical math)")
		schedule  = flag.Bool("schedule", false, "replay captured steps through the whole-step DAG scheduler (implies -capture-graph; WholeGraph only; identical math)")
		pagedF    = flag.Bool("paged-features", false, "serve features from the out-of-core paged store (WholeGraph only; bit-identical with raw encoding)")
		featEnc   = flag.String("feat-encoding", "", "paged-store page encoding: raw, f16, q8 (lossy below raw)")
		featRows  = flag.Int("feat-page-rows", 0, "paged-store rows per page (0 = default)")
		featCache = flag.Int("feat-cache-mb", 0, "paged-store per-device BlockCache budget in MiB (0 = default)")
		pagedT    = flag.Bool("paged-topo", false, "serve the CSR column array from the paged topology store (WholeGraph only; bit-identical sampling)")
		topoEdges = flag.Int("topo-page-edges", 0, "topology-store column entries per page (0 = default)")
		topoCache = flag.Int("topo-cache-mb", 0, "topology-store per-device BlockCache budget in MiB (0 = default)")
		prefetchP = flag.Int("prefetch-pages", 0, "fault-prefetch up to this many predicted pages per paged store ahead of each batch (0 = off)")
		cachePol  = flag.String("cache-policy", "", "paged-store BlockCache policy: lru (default) or admit (frequency-aware admission)")
		outOfCore = flag.Bool("out-of-core", false, "generate the dataset without materializing features or topology (implies -paged-features and -paged-topo)")
		traceOut  = flag.String("trace-out", "", "write worker 0's device timeline as a Chrome trace JSON")
		fullInfer = flag.Bool("full-infer", false, "run full-graph layer-wise inference after training (WholeGraph only)")
		saveModel = flag.String("save-model", "", "write the trained model's parameters to a checkpoint file")
		loadModel = flag.String("load-model", "", "initialize the model from a checkpoint before training")
	)
	flag.Parse()

	fanouts, err := parseFanouts(*fanoutStr)
	if err != nil {
		fatal(err)
	}
	var ds *wholegraph.Dataset
	if *loadPath != "" {
		fmt.Printf("loading dataset from %s...\n", *loadPath)
		ds, err = wholegraph.LoadDataset(*loadPath)
		if err != nil {
			fatal(err)
		}
	} else {
		spec, ok := lookupSpec(*dsName)
		if !ok {
			fatal(fmt.Errorf("unknown dataset %q", *dsName))
		}
		spec = spec.Scaled(*scale)
		spec.Weighted = *weighted
		fmt.Printf("generating %s at scale %g...\n", *dsName, *scale)
		if *outOfCore {
			*pagedF = true
			*pagedT = true
			ds, err = wholegraph.GenerateDatasetOutOfCore(spec)
		} else {
			ds, err = wholegraph.GenerateDataset(spec)
		}
		if err != nil {
			fatal(err)
		}
	}
	if ds.Graph != nil {
		fmt.Printf("graph: %d nodes, %d stored edges, %d train / %d val / %d test\n",
			ds.Graph.N, ds.Graph.NumEdges(), len(ds.Train), len(ds.Val), len(ds.Test))
	} else {
		fmt.Printf("graph: %d nodes, %d stored edges (out-of-core edge source), %d train / %d val / %d test\n",
			ds.Spec.Nodes, ds.Topo.NumEdges(), len(ds.Train), len(ds.Val), len(ds.Test))
	}

	machine := wholegraph.NewDGXA100(*nodes)
	opts := wholegraph.TrainOptions{
		Arch: *model, Batch: *batch, Fanouts: fanouts, Hidden: *hidden,
		Heads: *heads, LR: *lr, Dropout: float32(*dropout), Seed: *seed,
		Pipeline: *pipeline, CacheRows: *cacheRows, OverlapGrads: *overlapG,
		CaptureGraph:  *captureG,
		Schedule:      *schedule,
		PagedFeatures: *pagedF, FeatEncoding: *featEnc,
		FeatPageRows: *featRows, FeatCacheMB: *featCache,
		PagedTopo: *pagedT, TopoPageEdges: *topoEdges, TopoCacheMB: *topoCache,
		PrefetchPages: *prefetchP, CachePolicy: *cachePol,
	}
	opts.Trace = *traceOut != ""
	var trainer *wholegraph.Trainer
	switch strings.ToLower(*framework) {
	case "wholegraph", "wg":
		trainer, err = wholegraph.NewTrainer(machine, ds, opts)
	case "dgl":
		trainer, err = wholegraph.NewBaselineTrainer(machine, ds, opts, wholegraph.DGL)
	case "pyg":
		trainer, err = wholegraph.NewBaselineTrainer(machine, ds, opts, wholegraph.PyG)
	default:
		err = fmt.Errorf("unknown framework %q", *framework)
	}
	if err != nil {
		fatal(err)
	}
	if *loadModel != "" {
		if err := trainer.Models[0].Params().LoadFile(*loadModel); err != nil {
			fatal(err)
		}
		fmt.Printf("model initialized from %s\n", *loadModel)
	}
	fmt.Printf("store setup: %.1f ms (virtual)\n\n", machine.MaxTime()*1e3)
	machine.Reset()

	fmt.Printf("%5s %10s %10s %10s %10s %10s %8s %8s %8s\n",
		"epoch", "time", "sample", "gather", "train", "crit", "loss", "acc", "val")
	for e := 1; e <= *epochs; e++ {
		st := trainer.RunEpoch()
		val := "-"
		if *evalEvery > 0 && e%*evalEvery == 0 {
			acc, err := trainer.Evaluate(ds.Val, 512)
			if err != nil {
				fatal(err)
			}
			val = fmt.Sprintf("%.3f", acc)
		}
		fmt.Printf("%5d %10s %10s %10s %10s %10s %8.3f %8.3f %8s\n",
			st.Epoch, ms(st.EpochTime), ms(st.Timing.Sample), ms(st.Timing.Gather),
			ms(st.Timing.Train), ms(st.Timing.Crit), st.Loss, st.TrainAcc, val)
	}
	if len(ds.Test) > 0 {
		acc, err := trainer.Evaluate(ds.Test, 1024)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntest accuracy: %.3f\n", acc)
	}
	if hits, misses := trainer.CacheStats(); hits+misses > 0 {
		fmt.Printf("feature cache: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if fst := trainer.FeatStoreStats(); fst.Hits+fst.Misses > 0 {
		fmt.Printf("feature store (%s, %d rows/page, %s): %d page hits / %d misses (%.1f%% hit rate), %d evictions, %d prefetch hits, %d admission rejects, %.1f MiB resident of %.1f MiB budget\n",
			fst.Encoding, fst.PageRows, fst.Policy, fst.Hits, fst.Misses, 100*fst.HitRate(),
			fst.Evictions, fst.PrefetchHits, fst.AdmissionRejects,
			float64(fst.ResidentBytes)/(1<<20), float64(fst.CacheBytes)/(1<<20))
	}
	if gc := trainer.GraphStats(); gc.Captures+gc.Replays+gc.Fallbacks > 0 {
		fmt.Printf("step graphs: %d captures / %d replays (%d scheduled), %d invalidations, %d fallbacks\n",
			gc.Captures, gc.Replays, gc.Scheduled, gc.Invalidations, gc.Fallbacks)
	}
	if tst := trainer.TopoStoreStats(); tst.Hits+tst.Misses > 0 {
		fmt.Printf("topology store (%d edges/page, %s): %d page hits / %d misses (%.1f%% hit rate), %d evictions, %d prefetch hits, %d admission rejects, %.1f MiB resident of %.1f MiB budget\n",
			tst.PageEdges, tst.Policy, tst.Hits, tst.Misses, 100*tst.HitRate(),
			tst.Evictions, tst.PrefetchHits, tst.AdmissionRejects,
			float64(tst.ResidentBytes)/(1<<20), float64(tst.CacheBytes)/(1<<20))
	}
	if *fullInfer {
		if len(trainer.Stores) == 0 {
			fatal(fmt.Errorf("-full-infer requires -framework wholegraph"))
		}
		lw, ok := trainer.Models[0].(wholegraph.LayerwiseModel)
		if !ok {
			fatal(fmt.Errorf("model does not support layer-wise inference"))
		}
		t0 := machine.MaxTime()
		out, err := wholegraph.FullGraphInference(trainer.Stores[0], lw)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("full-graph inference: %d nodes embedded in %s (virtual)\n",
			out.R, ms(machine.MaxTime()-t0))
	}
	if *saveModel != "" {
		if err := trainer.Models[0].Params().SaveFile(*saveModel); err != nil {
			fatal(err)
		}
		fmt.Printf("model checkpoint written: %s\n", *saveModel)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := wholegraph.WriteChromeTrace(f, machine.Devs); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("device timeline written: %s (open in chrome://tracing)\n", *traceOut)
	}
}

func lookupSpec(name string) (wholegraph.DatasetSpec, bool) {
	for _, s := range []wholegraph.DatasetSpec{
		wholegraph.OgbnProducts, wholegraph.OgbnPapers100M,
		wholegraph.Friendster, wholegraph.UKDomain,
	} {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return wholegraph.DatasetSpec{}, false
}

func parseFanouts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad fanout %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func ms(s float64) string { return fmt.Sprintf("%.2fms", s*1e3) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wgtrain:", err)
	os.Exit(1)
}
