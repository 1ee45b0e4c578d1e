package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
	"wholegraph/internal/train"
)

// trainRun is one built training stack: dataset, machine, stores, trainer
// and the statistics of its warm-up epochs.
type trainRun struct {
	spec   trainSpec
	ds     *dataset.Dataset
	m      *sim.Machine
	tr     *train.Trainer
	loader *tracedLoader // nil unless built with a recorder
	warm   []train.EpochStats

	storeHostSec float64 // host seconds in core.NewStoreOpts, all nodes
	storeVirtSec float64 // machine clock right after the stores were built
}

// datasetSpec derives the generated dataset from the workload and the
// benchmark seed; toy shrinks it for the smoke test.
func (s trainSpec) datasetSpec(seed int64, toy bool) dataset.Spec {
	return seededSpec(s.base, s.scale, seed, toy)
}

func seededSpec(base dataset.Spec, scale float64, seed int64, toy bool) dataset.Spec {
	if toy {
		scale *= 0.1
	}
	ds := base.Scaled(scale)
	ds.Seed = base.Seed + 1_000_003*seed
	return ds
}

func generateDataset(spec dataset.Spec, outOfCore bool) (*dataset.Dataset, error) {
	if outOfCore {
		return dataset.GenerateOutOfCore(spec)
	}
	return dataset.Generate(spec)
}

// storeOptions translates train.Options into core.StoreOptions the way
// train.New does, so a harness-built store matches a trainer-built one.
func storeOptions(o train.Options) (core.StoreOptions, error) {
	so := core.StoreOptions{PagedFeatures: o.PagedFeatures, PagedTopo: o.PagedTopo}
	policy, err := blockcache.ParsePolicy(o.CachePolicy)
	if err != nil {
		return so, err
	}
	if o.PagedFeatures {
		enc, err := featstore.ParseEncoding(o.FeatEncoding)
		if err != nil {
			return so, err
		}
		so.Feat = featstore.Options{
			Encoding: enc, PageRows: o.FeatPageRows,
			CacheBytes: int64(o.FeatCacheMB) << 20, Policy: policy,
		}
	}
	if o.PagedTopo {
		so.Topo = topostore.Options{
			PageEdges: o.TopoPageEdges, CacheBytes: int64(o.TopoCacheMB) << 20, Policy: policy,
		}
	}
	return so, nil
}

// buildStores partitions ds onto every node of m.
func buildStores(m *sim.Machine, ds *dataset.Dataset, o train.Options) ([]*core.Store, error) {
	so, err := storeOptions(o)
	if err != nil {
		return nil, err
	}
	stores := make([]*core.Store, m.Cfg.Nodes)
	for n := range stores {
		if stores[n], err = core.NewStoreOpts(m, n, ds, so); err != nil {
			return nil, err
		}
	}
	return stores, nil
}

// buildTrainer assembles the trainer through train.NewCustom — the same
// construction train.New performs — so the harness can time the store
// build and, when rec is non-nil, wrap the worker's loader in spans.
func buildTrainer(spec trainSpec, ds *dataset.Dataset, seed int64, rec *recorder) (*trainRun, error) {
	opts := spec.opts
	opts.Seed = seed
	run := &trainRun{spec: spec, ds: ds, m: sim.NewMachine(sim.DGXA100(spec.nodes))}
	t0 := time.Now()
	stores, err := buildStores(run.m, ds, opts)
	if err != nil {
		return nil, err
	}
	run.storeHostSec = time.Since(t0).Seconds()
	run.storeVirtSec = run.m.MaxTime()
	run.tr, err = train.NewCustom(run.m, ds, opts, func(w int, dev *sim.Device) train.BatchLoader {
		ld := core.NewLoader(stores[0], dev, opts.Fanouts, opts.Seed+int64(w))
		if rec == nil {
			return ld
		}
		run.loader = &tracedLoader{Loader: ld, rec: rec}
		return run.loader
	})
	if err != nil {
		return nil, err
	}
	run.tr.Stores = stores
	return run, nil
}

func (r *trainRun) warmUp() {
	for e := 0; e < r.spec.warmup; e++ {
		r.warm = append(r.warm, r.tr.RunEpoch())
	}
}

// tracedLoader wraps the worker's core.Loader in spans and counters. The
// embedded loader supplies Device and Release unchanged; the trainer sees
// the same batch objects, so capture/replay keys are unaffected.
type tracedLoader struct {
	*core.Loader
	rec *recorder
	on  bool // record only inside the timed section

	targets    [][]int64 // target list of every build, warm-up included
	builds     int
	inputNodes float64 // gathered rows, summed over builds
	buildVirt  float64 // Sample+Gather virtual seconds, summed
	pages      float64 // pages faulted by PrefetchPages, summed
	waitVirt   float64 // compute-stream stall inside Collect, summed
}

// keep copies a build's target list (the trainer reuses the backing array
// across epochs) so the layer driver can replay the same batches.
func (l *tracedLoader) keep(targets []int64) {
	l.targets = append(l.targets, append([]int64(nil), targets...))
}

func (l *tracedLoader) built(b *gnn.Batch, tm core.Timing) {
	l.builds++
	l.inputNodes += float64(b.Feat.R)
	l.buildVirt += tm.Sample + tm.Gather
}

func (l *tracedLoader) BuildBatch(targets []int64) (*gnn.Batch, core.Timing) {
	l.keep(targets)
	if !l.on {
		return l.Loader.BuildBatch(targets)
	}
	id := l.rec.begin("core.BuildBatch", l.builds, l.Dev.Now())
	b, tm := l.Loader.BuildBatch(targets)
	l.rec.end(id, l.Dev.Now())
	l.built(b, tm)
	return b, tm
}

func (l *tracedLoader) Prefetch(targets []int64) {
	l.keep(targets)
	if !l.on {
		l.Loader.Prefetch(targets)
		return
	}
	// The build runs on the copy stream; that is the clock it charges.
	id := l.rec.begin("core.Prefetch", l.builds, l.Dev.StreamNow(sim.StreamCopy))
	l.Loader.Prefetch(targets)
	l.rec.end(id, l.Dev.StreamNow(sim.StreamCopy))
}

func (l *tracedLoader) Collect() (*gnn.Batch, core.Timing) {
	if !l.on {
		return l.Loader.Collect()
	}
	t0 := l.Dev.Now()
	id := l.rec.begin("core.Collect", l.builds, t0)
	b, tm := l.Loader.Collect()
	l.rec.end(id, l.Dev.Now())
	l.waitVirt += l.Dev.Now() - t0
	l.built(b, tm)
	return b, tm
}

func (l *tracedLoader) PrefetchPages(targets []int64, maxPages int) int {
	if !l.on {
		return l.Loader.PrefetchPages(targets, maxPages)
	}
	id := l.rec.begin("core.PrefetchPages", l.builds, l.Dev.StreamNow(sim.StreamCopy))
	n := l.Loader.PrefetchPages(targets, maxPages)
	l.rec.end(id, l.Dev.StreamNow(sim.StreamCopy))
	l.pages += float64(n)
	return n
}

// epochSample is one timed epoch: host wall plus the trainer's own stats.
type epochSample struct {
	hostSec float64
	st      train.EpochStats
}

// sameEpoch reports whether two epochs agree bit for bit in every virtual
// number and in the loss: the determinism contract of the simulator.
func sameEpoch(a, b train.EpochStats) bool {
	return a.Iters == b.Iters && a.EpochTime == b.EpochTime && a.Timing == b.Timing &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss) && a.TrainAcc == b.TrainAcc
}

func sameEpochs(a, b []train.EpochStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameEpoch(a[i], b[i]) {
			return false
		}
	}
	return true
}

// closureErr is |Sample+Gather+Train − Crit| ÷ Crit: zero when every
// phase lies on the critical path (the sequential loader).
func closureErr(t core.Timing) float64 {
	return ratio(math.Abs(t.Total()-t.Crit), t.Crit)
}

// epochChecks validates a run's timed epochs: finite losses, a final loss
// below the first warm-up epoch's, and — on sequential workloads — phases
// that sum to the critical path.
func epochChecks(c *checks, spec trainSpec, warm []train.EpochStats, timed []epochSample) (failedIters int) {
	finite := true
	worstClosure := 0.0
	for _, e := range timed {
		if !isFinite(e.st.Loss) {
			finite = false
			failedIters += e.st.Iters
		}
		if ce := closureErr(e.st.Timing); ce > worstClosure {
			worstClosure = ce
		}
	}
	c.add("loss finite in every timed epoch", finite, "")
	first, last := warm[0].Loss, timed[len(timed)-1].st.Loss
	c.add("final loss below first-epoch loss", last < first, fmt.Sprintf("first %.4f final %.4f", first, last))
	if !spec.opts.Pipeline {
		c.add("Sample+Gather+Train == Crit per epoch", worstClosure <= 1e-9, fmt.Sprintf("worst %.3g", worstClosure))
	}
	return failedIters
}

// runTrain is the untraced run: set up several times (reporting the median
// and checking that same-seed set-ups repeat bit for bit), then time the
// epochs of the last one.
func runTrain(spec trainSpec, o runOpts) (*result, error) {
	res := newResult()
	run, setups, err := setUpRepeatedly(&res.checks, o.setUps(), "virtual times, loss",
		func() (*trainRun, []train.EpochStats, error) {
			ds, err := generateDataset(spec.datasetSpec(o.seed, o.toy), spec.outOfCore)
			if err != nil {
				return nil, nil, err
			}
			run, err := buildTrainer(spec, ds, o.seed, nil)
			if err != nil {
				return nil, nil, err
			}
			run.warmUp()
			return run, run.warm, nil
		}, sameEpochs)
	if err != nil {
		return nil, err
	}

	epochs := scaleOps(spec.epochs, o.seconds, 2)
	if o.toy {
		epochs = 2
	}
	iters := run.tr.ItersPerEpoch()
	timed := make([]epochSample, 0, epochs)
	var allocsPerOp, kibPerOp []float64
	// Start from a collected heap, so peak RSS and the allocation counters
	// measure the timed epochs and not set-up garbage.
	box := newBoxSpeed(epochs)
	runtime.GC()
	meter := startAllocs()
	for e := 0; e < epochs; e++ {
		t := time.Now()
		st := run.tr.RunEpoch()
		timed = append(timed, epochSample{time.Since(t).Seconds(), st})
		box.sample()
		allocs, kib := meter.lap()
		allocsPerOp = append(allocsPerOp, allocs/float64(iters))
		kibPerOp = append(kibPerOp, kib/float64(iters))
	}

	failed := epochChecks(&res.checks, spec, run.warm, timed)
	ops := float64(epochs * iters)
	var hostPerOp, virtEpoch, virtIter []float64
	var virtTotal, goodSeeds float64
	for _, e := range timed {
		hostPerOp = append(hostPerOp, e.hostSec*1e3/float64(iters))
		virtEpoch = append(virtEpoch, e.st.EpochTime*1e3)
		virtIter = append(virtIter, e.st.EpochTime*1e3/float64(iters))
		virtTotal += e.st.EpochTime
		if isFinite(e.st.Loss) {
			goodSeeds += float64(len(run.ds.Train))
		}
	}
	res.attempted, res.failed = int(ops), failed
	res.set("setup_s", median(setups))
	res.set("peak_rss_mb", peakRSSMiB())
	res.set("host_ms_per_op", median(hostPerOp)/box.slowdown())
	res.set("host_allocs_per_op", median(allocsPerOp))
	res.set("host_kb_per_op", median(kibPerOp))
	res.set("virt_epoch_ms", median(virtEpoch))
	res.set("virt_p50_ms", percentile(virtIter, 0.50))
	res.set("virt_p99_ms", percentile(virtIter, 0.99))
	// Training throughput in thousands of training seeds per virtual
	// second: at the median epoch, and sustained over the whole timed
	// section counting only epochs whose loss stayed finite.
	res.set("virt_max_rate_krps", float64(len(run.ds.Train))/median(virtEpoch))
	res.set("virt_goodput_krps", goodSeeds/virtTotal/1e3)
	res.env = map[string]any{
		"ops": int(ops), "epochs": epochs, "iters_per_epoch": iters, "warmup_epochs": spec.warmup,
		"setups": o.setUps(), "host_samples": len(hostPerOp),
		"host_ms_per_op_raw": median(hostPerOp), "box_slowdown": box.slowdown(),
		"loss_final": timed[len(timed)-1].st.Loss,
	}
	return res, nil
}
