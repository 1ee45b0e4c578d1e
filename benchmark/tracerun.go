package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/serve"
	"wholegraph/internal/sim"
)

// tracedFrac is the share of the untraced run's timed ops the traced run
// executes — once untraced and once traced, interleaved pair by pair, so
// the two see the same machine noise; the median over pairs of the ratio of
// their host times is the tracing overhead.
const tracedFrac = 0.2

// finishTrace checks the tracing overhead, validates the span tree and
// writes the Chrome trace.
func finishTrace(rec *recorder, res *result, o runOpts) {
	// A toy run times a few hundredths of a second per side: its overhead
	// figure is noise and is reported without being checked.
	if f := res.metrics["trace_overhead_frac"]; !o.toy {
		res.checks.add("trace_overhead_frac < 0.10", f < 0.10, fmt.Sprintf("%.4f", f))
	}
	detail := ""
	err := rec.validate()
	if err != nil {
		detail = err.Error()
	}
	res.checks.add("spans nest and no self time is negative", err == nil, detail)
	path := filepath.Join(o.outDir, fmt.Sprintf("trace_%s_seed%d.json", o.workload, o.seed))
	if err := rec.writeChrome(path); err != nil {
		res.checks.add("trace written", false, err.Error())
		return
	}
	res.env["trace_file"] = path
	res.env["spans"] = len(rec.spans)
}

// traceTrain is the traced run of a training workload. Two trainers on
// the same dataset and seed — one plain, one with its loader wrapped in
// spans — run the same epochs alternately; they must agree bit for bit.
// Then the layer driver replays the recorded target lists.
func traceTrain(spec trainSpec, o runOpts) (*result, error) {
	res := newResult()
	res.env = map[string]any{}
	rec := newRecorder()

	id := rec.begin("dataset.Generate", 0, 0)
	ds, err := generateDataset(spec.datasetSpec(o.seed, o.toy), spec.outOfCore)
	rec.end(id, 0)
	if err != nil {
		return nil, err
	}
	res.set("dataset.gen_host_s", rec.spans[id-1].hostNs()/1e9)
	setDatasetSize(res, ds)

	plain, err := buildTrainer(spec, ds, o.seed, nil)
	if err != nil {
		return nil, err
	}
	id = rec.begin("core.NewStoreOpts+train.NewCustom", 0, 0)
	traced, err := buildTrainer(spec, ds, o.seed, rec)
	rec.end(id, 0)
	if err != nil {
		return nil, err
	}
	res.set("core.store_host_s", traced.storeHostSec)
	res.set("core.store_virt_ms", traced.storeVirtSec*1e3)
	plain.warmUp()
	traced.warmUp()

	epochs := scaleOps(int(float64(spec.epochs)*tracedFrac), o.seconds, 3)
	if o.toy {
		epochs = 2
	}
	iters := traced.tr.ItersPerEpoch()
	n := float64(epochs * iters)
	warmLists := len(traced.loader.targets)
	before := snapshotTrainer(traced)
	traced.loader.on = true
	var tracedSec float64
	var overhead []float64 // per epoch pair: traced ÷ plain host time
	var timed []epochSample
	same := true
	for e := 0; e < epochs; e++ {
		t := time.Now()
		a := plain.tr.RunEpoch()
		plainSec := time.Since(t).Seconds()

		id := rec.begin("train.RunEpoch", e, traced.m.MaxTime())
		t = time.Now()
		b := traced.tr.RunEpoch()
		host := time.Since(t).Seconds()
		rec.end(id, traced.m.MaxTime())
		tracedSec += host
		overhead = append(overhead, host/plainSec)
		timed = append(timed, epochSample{host, b})
		same = same && sameEpoch(a, b)
	}
	traced.loader.on = false
	after := snapshotTrainer(traced)
	same = same && sameEpochs(plain.warm, traced.warm)
	res.checks.add("traced and untraced runs agree bit for bit (loss, virtual times) in every epoch", same, "")
	res.attempted = int(n)
	res.failed = epochChecks(&res.checks, spec, traced.warm, timed)

	// Wrapper spans and counters of the traced trainer.
	ld := traced.loader
	tot := rec.totals()
	var loaderNs float64
	for _, name := range []string{"core.BuildBatch", "core.Prefetch", "core.Collect", "core.PrefetchPages"} {
		if t := tot[name]; t != nil {
			loaderNs += t.HostNs
		}
	}
	buildNs := loaderNs
	if t := tot["core.PrefetchPages"]; t != nil {
		buildNs -= t.HostNs
	}
	res.set("core.build_host_ms", buildNs/1e6/n)
	res.set("core.build_virt_ms", ld.buildVirt*1e3/n)
	res.set("core.input_nodes", ld.inputNodes/n)
	res.set("core.prefetch_pages", ld.pages/n)
	res.set("core.wait_batch_virt_us", ld.waitVirt*1e6/n)

	var virtSec float64
	var hostEpochMs []float64
	var timing core.Timing
	worstClosure := 0.0
	for _, e := range timed {
		virtSec += e.st.EpochTime
		hostEpochMs = append(hostEpochMs, e.hostSec*1e3)
		timing.Add(e.st.Timing)
		worstClosure = math.Max(worstClosure, closureErr(e.st.Timing))
	}
	res.set("train.step_host_ms", (tracedSec*1e9-loaderNs)/1e6/n)
	res.set("train.step_virt_us", timing.Train*1e6/n)
	res.set("train.crit_virt_us", timing.Crit*1e6/n)
	res.set("train.overlap_hidden_frac", 1-ratio(timing.Crit, timing.Total()))
	g := after.graph
	res.set("train.graph_captures", float64(g.Captures))
	res.set("train.graph_replays", float64(g.Replays))
	res.set("train.graph_invalidations", float64(g.Invalidations))
	res.set("train.graph_fallbacks", float64(g.Fallbacks))
	res.set("train.graph_scheduled", float64(g.Scheduled))
	res.set("train.replay_ratio", ratio(float64(g.Replays), float64((spec.warmup+epochs)*iters)))
	res.set("train.loss_final", timed[len(timed)-1].st.Loss)
	res.set("train.host_epoch_p95_ms", percentile(hostEpochMs, 0.95))
	res.set("train.closure_err", worstClosure)
	res.set("sched.scheduled_frac", ratio(float64(g.Scheduled), float64(g.Replays)))
	worker := traced.tr.Worker0Device().ID
	res.set("sched.copy_busy_frac",
		ratio(after.devs[worker].CopyBusySeconds-before.devs[worker].CopyBusySeconds, virtSec))
	setSim(res, worker, before.devs, after.devs, n, virtSec)
	if spec.opts.PagedFeatures {
		setStore(res, "featstore", before.feat, after.feat, n, true)
	}
	if spec.opts.PagedTopo {
		setStore(res, "topostore", before.topo, after.topo, n, false)
	}
	res.set("trace_overhead_frac", median(overhead)-1)
	res.env["ops"] = int(n)
	res.env["epochs"] = epochs
	res.env["iters_per_epoch"] = iters

	// Layer driver: free both trainers first, keep only the target lists.
	lists, loaderVirt := ld.targets, ld.buildVirt
	plain, traced, ld = nil, nil, nil
	drv, err := newTrainDriver(rec, spec, ds, o.seed)
	if err != nil {
		return nil, err
	}
	recorded := lists[warmLists:]
	if len(recorded) > int(n) {
		recorded = recorded[:int(n)]
	}
	drv.replay(lists[:warmLists], recorded)
	drv.microCalls(spec.opts.Hidden, true)
	drv.report(res, spec.opts.Hidden)
	res.checks.add("driver rebuilt the recorded batches (gather.rows == core.input_nodes)",
		res.metrics["gather.rows"] == res.metrics["core.input_nodes"], "")
	// The driver's loader chain is a copy of core.Loader's; this pins it. It
	// issues no page prefetches, so on paged stores its cache state — and
	// with it the virtual time — differs from the run's by design.
	if !spec.opts.PagedFeatures && !spec.opts.PagedTopo {
		build := rec.totals()["core.build"].VirtSec
		res.checks.add("driver: sample+gather virtual time equals the wrapped loader's Timing",
			relDiff(build, loaderVirt) <= 1e-9, fmt.Sprintf("driver %.9g s, loader %.9g s", build, loaderVirt))
	}
	finishTrace(rec, res, o)
	return res, nil
}

func setDatasetSize(res *result, ds *dataset.Dataset) {
	res.set("dataset.nodes", float64(ds.Spec.Nodes))
	switch {
	case ds.Graph != nil:
		res.set("dataset.edges_stored", float64(ds.Graph.NumEdges()))
	case ds.Topo != nil:
		res.set("dataset.edges_stored", float64(ds.Topo.NumEdges()))
	}
}

// replicaBatches recovers the target lists replica rep executed from a
// served trace: each batch's unique seed nodes in first-come order.
func replicaBatches(trace []*serve.Request, rep int) [][]int64 {
	byBatch := map[int][]int64{}
	for _, q := range trace {
		if q.Outcome != serve.OutcomeServed || q.Replica != rep {
			continue
		}
		ids := byBatch[q.Batch]
		dup := false
		for _, v := range ids {
			dup = dup || v == q.Node
		}
		if !dup {
			byBatch[q.Batch] = append(ids, q.Node)
		}
	}
	seqs := make([]int, 0, len(byBatch))
	for b := range byBatch {
		seqs = append(seqs, b)
	}
	sort.Ints(seqs)
	out := make([][]int64, 0, len(seqs))
	for _, b := range seqs {
		out = append(out, byBatch[b])
	}
	return out
}

// traceServe is the traced run of the serving workload: a plain and a
// span-wrapped deployment serve the same schedule alternately, then the
// layer driver replays replica 0's batches at the knee rate.
func traceServe(spec serveSpec, o runOpts) (*result, error) {
	res := newResult()
	res.env = map[string]any{}
	rec := newRecorder()

	id := rec.begin("dataset.Generate", 0, 0)
	ds, err := dataset.Generate(seededSpec(dataset.OgbnProducts, spec.scale, o.seed, o.toy))
	rec.end(id, 0)
	if err != nil {
		return nil, err
	}
	res.set("dataset.gen_host_s", rec.spans[id-1].hostNs()/1e9)
	setDatasetSize(res, ds)

	plain, err := buildServer(spec, ds, o.seed, nil)
	if err != nil {
		return nil, err
	}
	traced, err := buildServer(spec, ds, o.seed, rec)
	if err != nil {
		return nil, err
	}
	// serve.New builds the store, the caches and the replicas in one call;
	// from outside they are one span.
	res.set("core.store_host_s", traced.newHostSec)
	res.set("core.store_virt_ms", traced.m.MaxTime()*1e3)
	if err := plain.warmUp(); err != nil {
		return nil, err
	}
	if err := traced.warmUp(); err != nil {
		return nil, err
	}
	same := sameServe(plain.warm, traced.warm)

	sa := newSchedule(spec, o.seconds, tracedFrac, o.toy)
	sb := newSchedule(spec, o.seconds, tracedFrac, o.toy)
	var overhead []float64 // per step pair: traced ÷ plain host time
	var kneeDevs []sim.DeviceStats
	var kneeLists [][]int64
	for st, ok := sa.next(); ok; st, ok = sa.next() {
		a, err := plain.step(st)
		if err != nil {
			return nil, err
		}
		sa.record(a)
		stb, _ := sb.next()
		b, err := traced.step(stb)
		if err != nil {
			return nil, err
		}
		sb.record(b)
		same = same && st == stb && sameServe(a.res, b.res)
		overhead = append(overhead, b.hostSec/a.hostSec)
		if st.name == "r_knee" {
			for _, d := range traced.m.Devs {
				kneeDevs = append(kneeDevs, d.Stats)
			}
			kneeLists = replicaBatches(b.res.Trace, 0)
			res.set("serve.p9999_ms", p9999(b.res.Trace)*1e3)
		}
		a.res.Trace, b.res.Trace = nil, nil
	}
	res.checks.add("traced and untraced runs agree bit for bit (latencies, counts) on every step", same, "")
	sb.checkAccounting(&res.checks)

	low, knee, over := sb.low.res, sb.knee.res, sb.over.res
	res.attempted = low.Offered + knee.Offered
	res.failed = low.Shed + low.TimedOut + knee.Shed + knee.TimedOut
	res.set("serve.run_host_us_per_req", sb.knee.hostSec*1e6/float64(knee.Offered))
	res.set("serve.mean_batch", ratio(float64(knee.Served), float64(sb.knee.batches)))
	res.set("serve.batches", float64(sb.knee.batches))
	res.set("serve.shed_frac", ratio(float64(over.Shed), float64(over.Offered)))
	res.set("serve.timeout_frac", ratio(float64(over.TimedOut), float64(over.Offered)))
	res.set("serve.slo_attainment", knee.SLOAttainment)
	busy, copyBusy := busyFracs(knee)
	res.set("serve.replica_compute_busy_frac", busy)
	res.set("serve.replica_copy_busy_frac", copyBusy)
	res.set("serve.p99_ms_r_low", low.P99*1e3)
	res.set("serve.p99_ms_r_over", over.P99*1e3)
	res.set("cache.hit_rate", sb.knee.hitRate)
	setSim(res, 0, make([]sim.DeviceStats, len(kneeDevs)), kneeDevs, float64(knee.Offered), knee.Duration)
	res.set("trace_overhead_frac", median(overhead)-1)
	res.env["ops"] = float64(sb.offered()) / 1e3
	res.env["requests_per_fixed_step"] = sb.fixed[0].requests
	res.env["generator_lateness_s"] = 0.0

	plain, traced = nil, nil
	drv, err := newServeDriver(rec, spec, ds, o.seed)
	if err != nil {
		return nil, err
	}
	drv.replay(nil, kneeLists)
	drv.microCalls(spec.hidden, false)
	drv.report(res, spec.hidden)
	// On serving the loader chain is only reachable through the driver.
	tot := rec.totals()
	h, v := drv.perIter(tot["core.build"])
	res.set("core.build_host_ms", h/1e6)
	res.set("core.build_virt_ms", v*1e3)
	res.set("core.input_nodes", drv.gatherRows/float64(drv.iters))
	finishTrace(rec, res, o)
	return res, nil
}
