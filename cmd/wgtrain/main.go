// Command wgtrain trains a GNN on a synthetic evaluation graph with the
// WholeGraph pipeline or one of the host-memory baselines, printing
// per-epoch virtual timings, phase breakdowns and accuracy.
//
// The dataset is generated from -dataset and -scale; -out-of-core generates
// it without materializing features or topology.
//
// Usage:
//
//	wgtrain -dataset ogbn-products -scale 0.001 -model graphsage -epochs 10
//	wgtrain -framework dgl -model gat -batch 64 -fanouts 5,5 -hidden 32
//	wgtrain -dataset ogbn-papers100M -scale 0.001 -out-of-core
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wholegraph"
	"wholegraph/internal/bench"
)

func main() {
	// The model and execution flags are train.Options' own binding; what is
	// set here before binding is this command's defaults.
	opts := wholegraph.TrainOptions{
		Arch: "graphsage", Batch: 64, Fanouts: []int{5, 5}, Hidden: 32,
		Heads: 4, LR: 0.01, Dropout: 0.3, Seed: 1,
	}
	opts.BindModelFlags(flag.CommandLine)
	opts.BindExecFlags(flag.CommandLine)
	var (
		dsName    = flag.String("dataset", "ogbn-products", "dataset: ogbn-products, ogbn-papers100M, Friendster, UK_domain")
		scale     = flag.Float64("scale", 1e-3, "dataset scale factor")
		framework = flag.String("framework", "wholegraph", "pipeline: wholegraph, dgl, pyg")
		nodes     = flag.Int("nodes", 1, "simulated DGX-A100 nodes")
		epochs    = flag.Int("epochs", 10, "training epochs")
		evalEvery = flag.Int("eval-every", 1, "epochs between validation runs (0 = never)")
		weighted  = flag.Bool("weighted", false, "attach synthetic edge weights (weighted aggregation)")
		outOfCore = flag.Bool("out-of-core", false, "generate the dataset without materializing features or topology (implies -paged-features and -paged-topo)")
		traceOut  = flag.String("trace-out", "", "write worker 0's device timeline as a Chrome trace JSON")
		saveModel = flag.String("save-model", "", "write the trained model's parameters to a checkpoint file")
		loadModel = flag.String("load-model", "", "initialize the model from a checkpoint before training")
	)
	flag.Parse()
	// Everything a flag alone can get wrong is refused before the dataset is
	// generated.
	if err := wholegraph.DGXA100Config(*nodes).Validate(); err != nil {
		fatal(fmt.Errorf("-nodes %d: %w", *nodes, err))
	}
	if *epochs < 0 || *evalEvery < 0 {
		fatal(fmt.Errorf("-epochs %d, -eval-every %d: want non-negative counts", *epochs, *evalEvery))
	}
	if *outOfCore {
		opts.PagedFeatures, opts.PagedTopo = true, true
	}
	if *weighted && opts.PagedTopo {
		fatal(fmt.Errorf("-weighted: edge weights need a resident column array, not -paged-topo or -out-of-core"))
	}
	if err := opts.Check(); err != nil {
		fatal(err)
	}
	spec, ok := wholegraph.LookupDataset(*dsName)
	if !ok {
		fatal(fmt.Errorf("unknown dataset %q", *dsName))
	}
	if err := wholegraph.CheckScale(*scale); err != nil {
		fatal(err)
	}

	spec = spec.Scaled(*scale)
	spec.Weighted = *weighted
	fmt.Printf("generating %s at scale %g...\n", *dsName, *scale)
	generate := wholegraph.GenerateDataset
	if *outOfCore {
		generate = wholegraph.GenerateDatasetOutOfCore
	}
	ds, err := generate(spec)
	if err != nil {
		fatal(err)
	}
	if ds.Graph != nil {
		fmt.Printf("graph: %d nodes, %d stored edges, %d train / %d val / %d test\n",
			ds.Graph.N, ds.Graph.NumEdges(), len(ds.Train), len(ds.Val), len(ds.Test))
	} else {
		fmt.Printf("graph: %d nodes, %d stored edges (out-of-core edge source), %d train / %d val / %d test\n",
			ds.Spec.Nodes, ds.Topo.NumEdges(), len(ds.Train), len(ds.Val), len(ds.Test))
	}

	machine := wholegraph.NewDGXA100(*nodes)
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
	if fst := trainer.FeatStoreStats(); fst.Hits+fst.Misses > 0 {
		fmt.Printf("%v, %d pages allocated\n", fst, fst.PagesAllocated)
	}
	if gc := trainer.GraphStats(); gc.Active() {
		fmt.Println(gc)
	}
	if tst := trainer.TopoStoreStats(); tst.Hits+tst.Misses > 0 {
		fmt.Printf("%v, %d pages allocated\n", tst, tst.PagesAllocated)
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
	if rss := bench.PeakRSSBytes(); rss > 0 {
		fmt.Printf("peak RSS: %.1f MiB\n", float64(rss)/(1<<20))
	}
}

func ms(s float64) string { return fmt.Sprintf("%.2fms", s*1e3) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wgtrain:", err)
	os.Exit(1)
}
