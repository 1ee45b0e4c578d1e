// Command wgserve runs the online inference serving simulation: a seeded
// open-loop Poisson request stream against a multi-replica deployment with
// dynamic batching, admission control and SLO accounting, all in virtual
// time.
//
// Usage:
//
//	wgserve -rate 50000 -max-batch 16 -slo 0.01
//	wgserve -replicas 8 -cache-rows 500 -skew 1.3 -policy cache
//	wgserve -max-batch 1 -json single.json   # unbatched baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wholegraph"
)

func main() {
	var (
		dsName    = flag.String("dataset", "ogbn-products", "dataset: ogbn-products, ogbn-papers100M, Friendster, UK_domain")
		scale     = flag.Float64("scale", 1e-3, "dataset scale factor")
		model     = flag.String("model", "graphsage", "model: gcn, graphsage, gat")
		hidden    = flag.Int("hidden", 32, "hidden size")
		fanoutStr = flag.String("fanouts", "5,5", "per-layer sample counts")
		replicas  = flag.Int("replicas", 4, "serving replicas (GPUs of one node)")
		rate      = flag.Float64("rate", 50000, "mean Poisson arrival rate, requests per virtual second")
		requests  = flag.Int("requests", 4000, "total requests to generate")
		maxBatch  = flag.Int("max-batch", 16, "dynamic batching cap (1 = no batching)")
		maxDelay  = flag.Float64("max-delay", 0.5e-3, "longest a queued request waits for companions, virtual seconds")
		slo       = flag.Float64("slo", 10e-3, "latency SLO reported against, virtual seconds")
		deadline  = flag.Float64("deadline", 0, "drop requests not launched within this, virtual seconds (0 = never)")
		queueCap  = flag.Int("queue-cap", 0, "per-replica queue bound; arrivals beyond it are shed (0 = 8*max-batch)")
		cacheRows = flag.Int("cache-rows", 0, "hot-node feature cache size in rows per replica (0 = no cache)")
		skew      = flag.Float64("skew", 0, "Zipf popularity skew over the degree ranking (>1; 0 = uniform)")
		policy    = flag.String("policy", "cache", "routing policy: cache, owner, rr")
		seed      = flag.Int64("seed", 1, "random seed (fixes arrivals, nodes and sampling)")
		jsonPath  = flag.String("json", "", "write the aggregated result as JSON to this path")
		trace     = flag.Bool("trace", false, "print the per-request trace")
	)
	// The storage flags serving shares with training come from train.Options'
	// binding rather than a second declaration.
	var storage wholegraph.TrainOptions
	storage.BindExecFlags(flag.CommandLine,
		"paged-features", "feat-page-rows", "feat-cache-mb", "cache-policy")
	flag.Parse()

	fanouts, err := wholegraph.ParseFanouts(*fanoutStr)
	if err != nil {
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
	cfg := wholegraph.DGXA100Config(1)
	cfg.GPUsPerNode = *replicas
	if err := cfg.Validate(); err != nil {
		fatal(fmt.Errorf("-replicas %d: %w", *replicas, err))
	}
	mcfg := wholegraph.ModelConfig{
		InDim: spec.FeatDim, Hidden: *hidden, Classes: spec.NumClasses,
		Layers: len(fanouts), Heads: 4, Backend: wholegraph.BackendNative,
		Seed: *seed,
	}
	if err := wholegraph.CheckModel(*model, mcfg); err != nil {
		fatal(err)
	}
	if err := storage.Check(); err != nil {
		fatal(err)
	}
	so, err := storage.StoreOptions()
	if err != nil {
		fatal(err)
	}
	sopts := wholegraph.ServeOptions{
		Rate: *rate, Requests: *requests, MaxBatch: *maxBatch,
		MaxDelay: *maxDelay, SLO: *slo, Deadline: *deadline,
		QueueCap: *queueCap, CacheRows: *cacheRows, Fanouts: fanouts,
		Skew: *skew, Policy: wholegraph.ServePolicy(*policy), Seed: *seed,
		Store: so,
	}
	if err := sopts.Normalize().Validate(); err != nil {
		fatal(err)
	}
	fmt.Printf("generating %s at scale %g...\n", *dsName, *scale)
	ds, err := wholegraph.GenerateDataset(spec)
	if err != nil {
		fatal(err)
	}

	machine := wholegraph.NewMachine(cfg)
	m := wholegraph.NewModel(*model, mcfg)
	srv, err := wholegraph.NewServer(machine, 0, ds, m, sopts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("deployment: %d replicas, setup %.1f ms (virtual)\n",
		srv.Replicas(), machine.MaxTime()*1e3)
	machine.Reset()

	res, err := srv.Run()
	if err != nil {
		fatal(err)
	}

	if *trace {
		fmt.Printf("\n%6s %8s %10s %3s %8s %10s %6s\n",
			"req", "node", "arrival", "rep", "outcome", "latency", "batch")
		for _, q := range res.Trace {
			lat := "-"
			if q.Outcome == wholegraph.Served {
				lat = fmt.Sprintf("%.3fms", q.Latency()*1e3)
			}
			fmt.Printf("%6d %8d %9.3fms %3d %8s %10s %6d\n",
				q.ID, q.Node, q.Arrival*1e3, q.Replica, q.Outcome, lat, q.BatchSize)
		}
	}

	fmt.Printf("\noffered %d: served %d, shed %d, timed out %d (%d batches, mean size %.2f)\n",
		res.Offered, res.Served, res.Shed, res.TimedOut, res.Batches, res.MeanBatch)
	fmt.Printf("throughput: %.0f req/s over %.2f ms (goodput %.0f req/s)\n",
		res.Throughput, res.Duration*1e3, res.Goodput)
	fmt.Printf("latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, mean %.3f ms, max %.3f ms\n",
		res.P50*1e3, res.P95*1e3, res.P99*1e3, res.MeanLatency*1e3, res.MaxLatency*1e3)
	fmt.Printf("SLO %.1f ms: %.1f%% of served within\n", res.SLO*1e3, 100*res.SLOAttainment)
	for _, st := range res.PerReplica {
		line := fmt.Sprintf("  replica %d: %d reqs (%d served, %d shed, %d t/out), %d batches, busy %.2f/%.2f ms compute/copy",
			st.Replica, st.Requests, st.Served, st.Shed, st.TimedOut,
			st.Batches, st.BusySeconds*1e3, st.CopyBusySeconds*1e3)
		if *cacheRows > 0 {
			line += fmt.Sprintf(", cache hit %.0f%%", 100*st.CacheHitRate)
		}
		fmt.Println(line)
	}

	if fst := srv.FeatStoreStats(); fst.Hits+fst.Misses > 0 {
		fmt.Printf("%v, %d pages allocated\n", fst, fst.PagesAllocated)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("result written: %s\n", *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wgserve:", err)
	os.Exit(1)
}
