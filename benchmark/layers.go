package main

import (
	"fmt"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/cache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/graph"
	"wholegraph/internal/nccl"
	"wholegraph/internal/nn"
	"wholegraph/internal/sampling"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/topostore"
	"wholegraph/internal/train"
	"wholegraph/internal/unique"
)

// defaultBucketBytes mirrors internal/train's gradient-bucket threshold
// (train.Options.BucketBytes == 0); the driver needs only bucket sizes.
const defaultBucketBytes = 256 << 10

// layerDriver replays recorded target lists through the leaf layers'
// public functions on a fresh machine and store of the workload's
// configuration, one span per call:
//
//	iter > core.build > {sampling, unique, gather}
//	iter > {gnn.forward, tensor.loss, autograd.backward, sim.allreduce, nn.optimizer}
//
// It is the loader's and the eager step's call sequence written out, so
// each layer's host and virtual time can be read in isolation. Serving
// replays stop after gnn.forward.
type layerDriver struct {
	rec   *recorder
	m     *sim.Machine
	dev   *sim.Device
	store *core.Store

	fanouts []int
	sampler *sampling.GPUSampler
	nbs     []*sampling.Neighborhood
	deds    []*unique.Deduper
	blocks  []*spops.SubCSR
	cur     []graph.GlobalID
	rows    []int64
	feat    *tensor.Dense
	labels  []int32
	batch   gnn.Batch
	fc      *cache.FeatureCache // serving: the replica's hot-row cache

	model   gnn.Model
	tape    *autograd.Tape
	adam    *nn.Adam  // nil: forward only
	buckets []float64 // gradient bytes per bucket; empty: one blocking AllReduce
	startAt []float64 // per-device gate of the bucketed collectives

	// shadow is a second paged topology store that sees exactly the edge
	// reads the sampler issued, so the page store's own cost is measured
	// apart from the sampler's (out-of-core workload only).
	shadow    *topostore.Store
	shadowDev *sim.Device

	// Counters over the recorded iterations.
	iters                     int
	edges, uniqIn, uniqOut    float64
	gatherRows                float64
	gatherLocal, gatherRemote float64
	collectives               int
	cacheFillVirt             float64
}

// newTrainDriver builds the driver for a training workload.
func newTrainDriver(rec *recorder, spec trainSpec, ds *dataset.Dataset, seed int64) (*layerDriver, error) {
	opts := spec.opts.Normalize()
	opts.Seed = seed
	m := sim.NewMachine(sim.DGXA100(spec.nodes))
	stores, err := buildStores(m, ds, opts)
	if err != nil {
		return nil, err
	}
	d := newDriver(rec, m, stores[0], opts.Fanouts, seed)
	d.model = gnn.New(opts.Arch, gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: opts.Hidden, Classes: ds.Spec.NumClasses,
		Layers: len(opts.Fanouts), Heads: opts.Heads, Dropout: opts.Dropout,
		Backend: opts.Backend, Seed: seed,
	})
	d.adam = nn.NewAdam(opts.LR)
	if opts.OverlapGrads {
		for pi, p := range d.model.Params().Params() {
			if pi == 0 || d.buckets[len(d.buckets)-1] >= defaultBucketBytes {
				d.buckets = append(d.buckets, 0)
			}
			d.buckets[len(d.buckets)-1] += float64(4 * len(p.W.V))
		}
		d.startAt = make([]float64, len(m.Devs))
	}
	if opts.PagedTopo {
		m2 := sim.NewMachine(sim.DGXA100(1))
		twin, err := buildStores(m2, ds, opts)
		if err != nil {
			return nil, err
		}
		d.shadow, d.shadowDev = twin[0].TopoStore(), m2.NodeDevs(0)[0]
	}
	return d, nil
}

// newServeDriver builds the driver for the serving workload: replica 0's
// device, loader chain and hot-row cache.
func newServeDriver(rec *recorder, spec serveSpec, ds *dataset.Dataset, seed int64) (*layerDriver, error) {
	m := sim.NewMachine(spec.machineConfig())
	store, err := core.NewStore(m, 0, ds)
	if err != nil {
		return nil, err
	}
	d := newDriver(rec, m, store, spec.fanouts, seed)
	d.model = gnn.NewSAGE(spec.modelConfig(ds, seed))
	t0 := d.dev.Now()
	if d.fc, err = cache.NewDegreeCache(store.PG, d.dev, spec.cacheRows); err != nil {
		return nil, err
	}
	d.cacheFillVirt = d.dev.Now() - t0
	return d, nil
}

func newDriver(rec *recorder, m *sim.Machine, store *core.Store, fanouts []int, seed int64) *layerDriver {
	d := &layerDriver{
		rec: rec, m: m, dev: m.NodeDevs(0)[0], store: store, fanouts: fanouts,
		tape: autograd.NewTapeArena(tensor.NewArena()),
	}
	d.sampler = sampling.NewGPUSampler(store.PG, d.dev, seed)
	for range fanouts {
		d.nbs = append(d.nbs, new(sampling.Neighborhood))
		d.deds = append(d.deds, unique.NewDeduper())
		d.blocks = append(d.blocks, new(spops.SubCSR))
	}
	return d
}

// iter runs one iteration for targets. With record false it runs the same
// calls without spans or counters (cache and page-store warm-up).
func (d *layerDriver) iter(op int, targets []int64, record bool) {
	rec := d.rec
	if !record {
		rec = nil
	}
	dev, pg := d.dev, d.store.PG
	iterID := rec.begin("iter", op, dev.Now())

	buildID := rec.begin("core.build", op, dev.Now())
	d.cur = d.cur[:0]
	for _, v := range targets {
		d.cur = append(d.cur, pg.Owner[v])
	}
	cur := d.cur
	for hop, fan := range d.fanouts {
		id := rec.begin("sampling", op, dev.Now())
		nb := d.sampler.SampleLayerInto(d.nbs[hop], cur, fan)
		rec.end(id, dev.Now())

		id = rec.begin("unique", op, dev.Now())
		uq := d.deds[hop].AppendUnique(dev, cur, nb.Neighbors)
		rec.end(id, dev.Now())

		blk := d.blocks[len(d.fanouts)-1-hop]
		blk.NumTargets, blk.NumNodes = len(cur), len(uq.Unique)
		blk.RowPtr, blk.Col, blk.DupCount = nb.Offsets, uq.NeighborSubID, uq.DupCount
		if record {
			d.edges += float64(len(nb.Neighbors))
			d.uniqIn += float64(len(cur) + len(nb.Neighbors))
			d.uniqOut += float64(len(uq.Unique))
		}
		cur = uq.Unique
	}
	d.rows = d.rows[:0]
	for _, gid := range cur {
		d.rows = append(d.rows, pg.FeatRow(gid))
	}
	if d.feat == nil {
		d.feat = tensor.New(len(cur), pg.Dim)
	} else {
		d.feat.Resize(len(cur), pg.Dim)
	}
	local0, remote0 := dev.Stats.LocalBytes, dev.Stats.RemoteBytes
	id := rec.begin("gather", op, dev.Now())
	if d.fc != nil {
		d.fc.GatherRows(d.rows, pg.Dim, d.feat.V, "gather.feat")
	} else {
		pg.Features().GatherRows(dev, d.rows, pg.Dim, d.feat.V, "gather.feat")
	}
	rec.end(id, dev.Now())
	if record {
		d.gatherRows += float64(len(d.rows))
		d.gatherLocal += dev.Stats.LocalBytes - local0
		d.gatherRemote += dev.Stats.RemoteBytes - remote0
	}
	d.labels = d.labels[:0]
	for _, v := range targets {
		d.labels = append(d.labels, d.store.DS.Labels[v])
	}
	d.batch = gnn.Batch{Blocks: d.blocks, Feat: d.feat, Labels: d.labels}
	rec.end(buildID, dev.Now())

	d.tape.Reset()
	id = rec.begin("gnn.forward", op, dev.Now())
	logits := d.model.Forward(dev, d.tape, &d.batch, d.adam != nil)
	rec.end(id, dev.Now())

	if d.adam != nil {
		id = rec.begin("tensor.loss", op, dev.Now())
		grad := d.tape.NewTensor(logits.Value.R, logits.Value.C)
		tensor.CrossEntropy(logits.Value, d.batch.Labels, grad)
		rec.end(id, dev.Now())

		id = rec.begin("autograd.backward", op, dev.Now())
		d.tape.Backward(logits, grad)
		rec.end(id, dev.Now())

		id = rec.begin("sim.allreduce", op, dev.Now())
		d.allReduce(record)
		rec.end(id, dev.Now())

		id = rec.begin("nn.optimizer", op, dev.Now())
		d.adam.Step(dev, d.model.Params())
		rec.end(id, dev.Now())
	}
	rec.end(iterID, dev.Now())
	if record {
		d.iters++
	}

	if d.shadow != nil {
		id := rec.begin("topostore.access", op, d.shadowDev.Now())
		for _, nb := range d.nbs {
			acc := d.shadow.Begin(d.shadowDev)
			for _, e := range nb.EdgePos {
				acc.At(e)
			}
			acc.Flush("sample")
		}
		rec.end(id, d.shadowDev.Now())
	}
}

// allReduce charges the step's gradient synchronisation the way the
// workload's trainer does: one blocking hierarchical AllReduce, or one
// collective per gradient bucket on the copy stream joined at the end.
func (d *layerDriver) allReduce(record bool) {
	if len(d.buckets) == 0 {
		sim.HierarchicalAllReduce(d.m, float64(4*d.model.Params().NumElements()))
		if record {
			d.collectives++
		}
		return
	}
	// Every device joins when this worker's gradients are final: now.
	for i := range d.startAt {
		d.startAt[i] = d.dev.Now()
	}
	var last float64
	for _, bytes := range d.buckets {
		c := sim.StartHierarchicalAllReduce(d.m, bytes, sim.CollOpts{
			Stream: sim.StreamCopy, StartAt: d.startAt, Tag: "allreduce.grads",
		})
		if t := c.Done[d.dev.ID].T; t > last {
			last = t
		}
		if record {
			d.collectives++
		}
	}
	d.dev.WaitEvent(sim.Event{T: last}, "grad-sync")
}

// microCalls times the kernels below the model at the workload's shapes —
// the last batch's first block and feature matrix — as direct calls.
func (d *layerDriver) microCalls(hidden int, withNCCL bool) {
	const calls = 20
	rec, dev := d.rec, d.dev
	tp := autograd.NewTape()
	x := tp.Const(d.batch.Feat)
	for i := 0; i < calls; i++ {
		id := rec.begin("spops.SpMM", i, dev.Now())
		spops.SpMM(dev, spops.BackendNative, d.batch.Blocks[0], x, nil, spops.AggMean)
		rec.end(id, dev.Now())
	}
	w := tensor.Glorot(d.batch.Feat.C, hidden, rand.New(rand.NewSource(1)))
	dst := tensor.New(d.batch.Feat.R, hidden)
	for i := 0; i < calls; i++ {
		id := rec.begin("tensor.MatMulInto", i, 0)
		tensor.MatMulInto(dst, d.batch.Feat, w)
		rec.end(id, 0)
	}
	if !withNCCL {
		return
	}
	bufs := make([][]float32, len(d.m.Devs))
	for i := range bufs {
		bufs[i] = make([]float32, d.model.Params().NumElements())
	}
	for i := 0; i < calls; i++ {
		id := rec.begin("nccl.AllReduceMeanHierarchical", i, d.m.MaxTime())
		nccl.AllReduceMeanHierarchical(d.m, bufs)
		rec.end(id, d.m.MaxTime())
	}
}

// perIter divides a span family's totals by the recorded iterations.
func (d *layerDriver) perIter(t *spanTotals) (hostNs, virtSec float64) {
	if t == nil || d.iters == 0 {
		return 0, 0
	}
	return t.HostNs / float64(d.iters), t.VirtSec / float64(d.iters)
}

// report turns the driver's spans and counters into per-layer metrics and
// checks that the spans close: the layers' virtual time sums to the
// iteration's exactly and their host self times cover at least 95 % of it.
func (d *layerDriver) report(res *result, hidden int) {
	tot := d.rec.totals()
	n := float64(d.iters)
	// Per-iteration layer spans: host ns scaled to the unit in the metric's
	// name, virtual seconds to microseconds.
	for _, l := range []struct {
		span, host string
		hostDiv    float64
		virt       string
	}{
		{"sampling", "sampling.host_us", 1e3, "sampling.virt_us"},
		{"unique", "unique.host_us", 1e3, "unique.virt_us"},
		{"gather", "gather.host_us", 1e3, "gather.virt_us"},
		{"gnn.forward", "gnn.forward_host_ms", 1e6, "gnn.forward_virt_us"},
		{"tensor.loss", "tensor.loss_host_us", 1e3, ""},
		{"autograd.backward", "autograd.backward_host_ms", 1e6, "autograd.backward_virt_us"},
		{"nn.optimizer", "nn.optimizer_host_us", 1e3, "nn.optimizer_virt_us"},
	} {
		h, v := d.perIter(tot[l.span])
		res.set(l.host, h/l.hostDiv)
		if l.virt != "" {
			res.set(l.virt, v*1e6)
		}
	}
	res.set("sampling.edges", d.edges/n)
	res.set("unique.dedup_ratio", ratio(d.uniqOut, d.uniqIn))
	res.set("gather.rows", d.gatherRows/n)
	res.set("gather.remote_byte_frac", ratio(d.gatherRemote, d.gatherLocal+d.gatherRemote))
	if ar := tot["sim.allreduce"]; ar != nil && d.collectives > 0 {
		res.set("sim.allreduce_host_us_per_call", ar.HostNs/1e3/float64(d.collectives))
		res.set("sim.allreduce_virt_us_per_call", ar.VirtSec*1e6/float64(d.collectives))
	}
	if d.fc != nil {
		h, _ := d.perIter(tot["gather"])
		res.set("cache.host_us", h/1e3)
		res.set("cache.fill_virt_ms", d.cacheFillVirt*1e3)
	}
	if d.store.FeatStore() != nil {
		h, v := d.perIter(tot["gather"])
		res.set("featstore.host_ms", h/1e6)
		res.set("featstore.virt_ms", v*1e3)
	}
	if d.shadow != nil {
		h, v := d.perIter(tot["topostore.access"])
		res.set("topostore.host_ms", h/1e6)
		res.set("topostore.virt_ms", v*1e3)
	}
	perCall := func(name string) (hostUs, virtUs float64) {
		t := tot[name]
		if t == nil {
			return 0, 0
		}
		return t.HostNs / 1e3 / float64(t.Calls), t.VirtSec * 1e6 / float64(t.Calls)
	}
	h, v := perCall("spops.SpMM")
	res.set("spops.spmm_host_us_per_call", h)
	res.set("spops.spmm_virt_us_per_call", v)
	h, _ = perCall("tensor.MatMulInto")
	res.set("tensor.matmul_host_us_per_call", h)
	flop := 2 * float64(d.batch.Feat.R) * float64(d.batch.Feat.C) * float64(hidden)
	res.set("tensor.matmul_gflops_host", ratio(flop, h*1e3))
	h, _ = perCall("nccl.AllReduceMeanHierarchical")
	res.set("nccl.allreduce_mean_host_us_per_call", h)

	it := tot["iter"]
	res.checks.add("driver: layer virtual times sum to the iteration's",
		it != nil && relDiff(it.VirtSec-it.SelfVirt, it.VirtSec) <= 1e-9, "")
	cover := 0.0
	if it != nil {
		cover = 1 - ratio(it.SelfNs, it.HostNs)
	}
	res.checks.add("driver: layer host self times cover >= 95% of the iteration", cover >= 0.95,
		fmt.Sprintf("cover %.4f", cover))
	res.env["driver_iters"] = d.iters
	res.env["driver_host_cover"] = cover
}

// replay runs warm lists without recording, then the recorded lists.
func (d *layerDriver) replay(warm, recorded [][]int64) {
	d.rec.lane = laneDriver
	for i, tg := range warm {
		d.iter(i, tg, false)
	}
	for i, tg := range recorded {
		d.iter(i, tg, true)
	}
}

// trainerCounters snapshots every counter the traced training run reads at
// the timed section's boundaries.
type trainerCounters struct {
	devs  []sim.DeviceStats
	feat  storeStats
	topo  storeStats
	graph train.GraphCounters
}

// storeStats is the common part of the two paged stores' Stats.
type storeStats struct {
	hits, misses, evictions, prefetchHits, admissionRejects, resident int64
}

func snapshotTrainer(r *trainRun) trainerCounters {
	c := trainerCounters{graph: r.tr.GraphStats()}
	for _, d := range r.m.Devs {
		c.devs = append(c.devs, d.Stats)
	}
	fs := r.tr.FeatStoreStats()
	c.feat = storeStats{fs.Hits, fs.Misses, fs.Evictions, fs.PrefetchHits, fs.AdmissionRejects, fs.ResidentBytes}
	ts := r.tr.TopoStoreStats()
	c.topo = storeStats{ts.Hits, ts.Misses, ts.Evictions, ts.PrefetchHits, ts.AdmissionRejects, ts.ResidentBytes}
	return c
}

// setStore reports one paged store's counters over the timed section, per
// iteration where they are counts.
func setStore(res *result, prefix string, a, b storeStats, iters float64, admission bool) {
	hits, misses := float64(b.hits-a.hits), float64(b.misses-a.misses)
	res.set(prefix+".hit_rate", ratio(hits, hits+misses))
	res.set(prefix+".misses", misses/iters)
	res.set(prefix+".evictions", float64(b.evictions-a.evictions)/iters)
	res.set(prefix+".prefetch_hits", float64(b.prefetchHits-a.prefetchHits)/iters)
	if admission {
		res.set(prefix+".admission_rejects", float64(b.admissionRejects-a.admissionRejects)/iters)
	}
	res.set(prefix+".resident_mb", float64(b.resident)/(1<<20))
}

// setSim reports the device counters over the timed section: kernel and
// FLOP counts, launches and busy shares of the worker's own device; bytes
// summed over every device of the machine. per is the op count (training
// iterations or served requests) and virtSec the section's virtual length.
func setSim(res *result, worker int, a, b []sim.DeviceStats, per, virtSec float64) {
	w0, w1 := a[worker], b[worker]
	res.set("sim.kernels", float64(w1.Kernels-w0.Kernels)/per)
	res.set("sim.flops", (w1.FLOPs-w0.FLOPs)/per)
	res.set("sim.graph_launches", float64(w1.GraphLaunches-w0.GraphLaunches)/per)
	res.set("sim.graph_kernels", float64(w1.GraphKernels-w0.GraphKernels)/per)
	res.set("sim.compute_busy_frac", ratio(w1.BusySeconds-w0.BusySeconds, virtSec))
	res.set("sim.comm_virt_us", (w1.CommSeconds-w0.CommSeconds)*1e6/per)
	var nvlink, ib, local, remote, host float64
	for i := range a {
		nvlink += b[i].NVLinkTxBytes - a[i].NVLinkTxBytes
		ib += b[i].IBTxBytes - a[i].IBTxBytes
		local += b[i].LocalBytes - a[i].LocalBytes
		remote += b[i].RemoteBytes - a[i].RemoteBytes
		host += b[i].HostBytes - a[i].HostBytes
	}
	res.set("sim.nvlink_tx_mb", nvlink/1e6/per)
	res.set("sim.ib_tx_mb", ib/1e6/per)
	res.set("sim.local_mb", local/1e6/per)
	res.set("sim.remote_mb", remote/1e6/per)
	res.set("sim.host_mb", host/1e6/per)
}
