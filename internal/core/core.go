// Package core assembles the paper's primary contribution: the WholeGraph
// graph store (structure + features partitioned over the GPUs of one node
// in distributed shared memory, §III-B) and the GPU-resident mini-batch
// loader that chains the multi-GPU sampling op, the AppendUnique op and the
// global feature gather op (§III-C) into message-flow-graph batches ready
// for GNN training.
package core

import (
	"fmt"
	"math/rand"
	"slices"

	"wholegraph/internal/cache"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/gnn"
	"wholegraph/internal/graph"
	"wholegraph/internal/sampling"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/topostore"
	"wholegraph/internal/unique"
	"wholegraph/internal/wholemem"
)

// Store is a dataset resident in the multi-GPU distributed shared memory of
// one machine node: every GPU holds a hash partition of the nodes, their
// outgoing edges and their feature rows, and can read all other partitions
// through peer access.
type Store struct {
	Machine *sim.Machine
	Node    int
	Comm    *wholemem.Comm
	DS      *dataset.Dataset
	PG      *graph.Partitioned
}

// StoreOptions selects the storage backend per table: the flat resident
// layout (defaults), the paged feature store, and/or the paged topology
// store. Out-of-core datasets (GenerateOutOfCore: no CSR, no slab)
// require both paged backends.
type StoreOptions struct {
	// PagedFeatures serves node features from internal/featstore
	// (configured by Feat) instead of a resident wholemem slab.
	PagedFeatures bool
	Feat          featstore.Options
	// PagedTopo serves the CSR column array from internal/topostore
	// (configured by Topo) instead of a resident wholemem array; RowPtr
	// stays resident either way.
	PagedTopo bool
	Topo      topostore.Options
}

// NewStore partitions ds across the GPUs of machine node `node`, charging
// the allocation and IPC-setup cost (§III-B: tens to ~200 ms, once per
// training run).
func NewStore(m *sim.Machine, node int, ds *dataset.Dataset) (*Store, error) {
	return NewStoreOpts(m, node, ds, StoreOptions{})
}

// NewStoreOpts is NewStore with explicit storage backends. Decoded
// values are bit-identical across all backend combinations (Raw feature
// encoding): paging changes virtual time and cache hit rates, never
// training results.
func NewStoreOpts(m *sim.Machine, node int, ds *dataset.Dataset, opts StoreOptions) (*Store, error) {
	if ds.Feat == nil && ds.Gen != nil && !opts.PagedFeatures {
		return nil, fmt.Errorf("core: %s has no materialized feature slab; it requires the paged feature store (StoreOptions.PagedFeatures)", ds.Spec.Name)
	}
	comm, err := wholemem.NewComm(m.NodeDevs(node))
	if err != nil {
		return nil, err
	}
	// Every store maps the dataset's one host layout, whichever tables it
	// pages: every node of a machine, and every store built over the
	// dataset, shares its index arrays and its DegreeOrder.
	l, err := ds.HashLayout(comm.Size())
	var pg *graph.Partitioned
	if err == nil {
		pg, err = l.Map(comm, graph.Paging{Topo: opts.PagedTopo, TopoOpts: opts.Topo, Features: opts.PagedFeatures})
	}
	if err != nil {
		return nil, fmt.Errorf("core: partitioning %s: %w", ds.Spec.Name, err)
	}
	if opts.PagedFeatures {
		if ds.Feat == nil && ds.Gen == nil {
			return nil, fmt.Errorf("core: %s has no features for the paged store", ds.Spec.Name)
		}
		fs, err := featstore.New(&partitionRows{pg: pg, ds: ds}, opts.Feat)
		if err != nil {
			return nil, err
		}
		fs.Attach(comm.Devs...)
		pg.SetFeatures(fs)
	}
	return &Store{Machine: m, Node: node, Comm: comm, DS: ds, PG: pg}, nil
}

// SetupTime returns the virtual time the store construction took (the
// maximum device clock right after NewStore on a fresh machine).
func (s *Store) SetupTime() float64 { return s.Machine.MaxTime() }

// FeatStore returns the paged feature store behind a
// StoreOptions.PagedFeatures store, or nil for slab-backed stores.
func (s *Store) FeatStore() *featstore.Store {
	fs, _ := s.PG.Features().(*featstore.Store)
	return fs
}

// TopoStore returns the paged topology store behind a paged-topology
// store, or nil when the column array is materialized.
func (s *Store) TopoStore() *topostore.Store { return s.PG.PagedTopo() }

// partitionRows adapts the dataset's per-node rows to the partitioned
// feature-row order (rank-major, FeatRow indices) the loader gathers with.
type partitionRows struct {
	pg *graph.Partitioned
	ds *dataset.Dataset
}

func (p *partitionRows) NumRows() int64 { return p.pg.N }
func (p *partitionRows) Dim() int       { return p.pg.Dim }
func (p *partitionRows) FillRow(row int64, dst []float32) {
	p.ds.FillFeatRow(p.pg.RowOrig(row), dst)
}

// batchFace is what a caller of the loader holds: a gnn.Batch, its Feat
// header and its SubCSR objects, at addresses that never change. Binding a
// build to a face copies the build body's slice headers and SubCSR values
// into it — O(layers) — so a face keeps its identity, the key step-graph
// captures are held under, whichever body it shows. ready is recorded on
// the copy stream when a prefetched build has been issued; free is recorded
// on the compute stream when the face's batch has been consumed (Release).
// The zero events never block.
type batchFace struct {
	batch  gnn.Batch
	feat   tensor.Dense
	blocks []spops.SubCSR
	body   *buildBody
	ready  sim.Event
	free   sim.Event
}

// buildBody is the storage one build computes into: per-hop neighborhoods,
// dedup workspaces and sub-CSR blocks (each hop needs its own, since all
// hops' blocks are alive in a batch at once), plus the frontier,
// feature-row, feature and label buffers. Each body is reused in place, so
// the steady-state loop allocates nothing.
type buildBody struct {
	curBuf []graph.GlobalID
	nbs    []sampling.Neighborhood
	deds   []unique.Deduper
	blocks []spops.SubCSR
	rows   []int64
	feat   tensor.Dense
	labels []int32
	tm     Timing
	// sample and gather list, in launch order, the charges the two phases
	// of the build recorded on the loader's twin, for apply to issue on the
	// device. Empty when the build charged the device directly.
	sample, gather []sim.Charge
	// targets is the list a build started ahead of its call is of, and
	// failed the value that build panicked with (nil if it did not).
	targets []int64
	failed  any
}

// Loader builds training batches for one device. One loader per training
// process, as in the paper's one-process-per-GPU layout.
//
// Batches come out of two faces over three build bodies. A returned batch is
// a face showing a body; it stays valid while the next batch is built into
// another body, which is what lets Prefetch construct batch i+1 on the
// device's copy stream while compute still reads batch i.
//
// A build is two halves. compute is the host math — sample, AppendUnique,
// gather — into a free body, charging a staging twin of the device, which
// records the charges into the body; apply issues them on the device at the
// call point, so the clocks, Stats and trace are those of a build that ran
// there. Prefetching overlaps virtual time only. Plan overlaps host
// execution: it announces the next BuildBatch or Prefetch calls, and while
// the caller works on batch k a builder goroutine computes batch k+1 into a
// body no readable batch shows. Speculate does the same for the first
// builds of a plan not announced yet, undoing them if something else is
// built first.
//
// Ownership: the loader — device, faces, bodies, plan — belongs to its
// worker's goroutine. Between the start of a run-ahead build and the call
// that joins it, the builder goroutine owns the sampler (its RNG and
// sampling.Scratch), the hot-row cache's counters, the twin and the bodies
// in ahead, and reads ahead; it never touches the device, a face or a body
// a face shows to the caller. The store is immutable. The send on
// buildJobs and the one on done order the hand-overs, so no locking is
// involved.
//
// Stores whose reads consult the clock (paged features or topology compare
// page-ready times with it and run the copy-stream event dance) cannot be
// staged: bdev is then the device itself, compute charges it at the call
// point, and a plan only checks the call order.
type Loader struct {
	Store   *Store
	Dev     *sim.Device
	Fanouts []int
	// bdev is the device builds charge: a staging twin of Dev, or Dev.
	bdev    *sim.Device
	sampler *sampling.GPUSampler
	cache   *cache.FeatureCache

	faces  [2]batchFace
	bodies [3]buildBody
	// next indexes the face the next build binds; the most recently returned
	// batch is faces[next^1], and live is the body it shows.
	next int
	live *buildBody
	// pending is set between Prefetch and Collect; faces[next] holds the
	// prefetched build.
	pending bool

	// plan holds the announced target lists not handed out yet. ahead holds,
	// in order, the nAhead bodies of builds started ahead of their calls: of
	// plan[0], plan[1], … or, with spec set, of the lists Speculate was
	// given. running is set while a builder goroutine fills them; it reports
	// on done.
	plan    [][]int64
	ahead   [2]*buildBody
	nAhead  int
	running bool
	done    chan struct{}

	// spec marks the builds in ahead as speculative: snap holds the sampler
	// stream and cache counters from before them, and, once they are
	// joined, the counts their lookups added.
	spec bool
	snap struct {
		rng                  sampling.RNGState
		hits, misses         int64
		specHits, specMisses int64
	}

	// PrefetchPages scratch: the predicted page ids of one store.
	pfIDs []int32
}

// NewLoader creates a loader on dev sampling with the given per-layer
// fanouts (paper: 30,30,30).
func NewLoader(s *Store, dev *sim.Device, fanouts []int, seed int64) *Loader {
	bdev := dev
	if s.FeatStore() == nil && s.TopoStore() == nil {
		bdev = dev.StagingTwin()
	}
	l := &Loader{
		Store:   s,
		Dev:     dev,
		Fanouts: fanouts,
		bdev:    bdev,
		sampler: sampling.NewGPUSampler(s.PG, bdev, seed),
		done:    make(chan struct{}, 1),
	}
	for i := range l.faces {
		f := &l.faces[i]
		f.blocks = make([]spops.SubCSR, len(fanouts))
		f.batch.Blocks = make([]*spops.SubCSR, len(fanouts))
		for j := range f.blocks {
			f.batch.Blocks[j] = &f.blocks[j]
		}
		f.batch.Feat = &f.feat
	}
	return l
}

// Device returns the GPU this loader samples and trains on.
func (l *Loader) Device() *sim.Device { return l.Dev }

// WithCache routes the loader's feature gathers through a hot-node cache
// (see internal/cache); the cache must belong to the same device.
func (l *Loader) WithCache(c *cache.FeatureCache) *Loader {
	if c != nil && c.Dev != l.Dev {
		panic("core: cache bound to a different device")
	}
	l.cache = c
	return l
}

// Timing is the per-phase virtual-time breakdown of Figure 9: how long the
// executing stream spent sampling (including AppendUnique), gathering
// features, and training. The three stage fields are busy times on
// whichever stream ran the stage: sequentially all three lie on the
// device's single compute timeline; under the pipelined loader Sample and
// Gather accrue on the copy stream, concurrently with Train on the compute
// stream.
type Timing struct {
	Sample float64
	Gather float64
	Train  float64
	// Crit is the iteration critical path: the compute-stream span from
	// iteration start to optimizer-step end. Sequentially it equals
	// Sample+Gather+Train (everything is on the critical path); pipelined
	// it is shorter, because the next batch's Sample+Gather hide behind
	// Train and only the residual wait surfaces.
	Crit float64
}

// Total returns the summed per-stage busy time. Stages on different
// streams overlap, so under the pipelined loader Total exceeds the elapsed
// critical path; use Crit for elapsed-time claims and Total for busy-time
// breakdowns (Figure 9 stacks busy time, so it uses Total either way).
func (t Timing) Total() float64 { return t.Sample + t.Gather + t.Train }

// Add accumulates another timing field-wise — per-stage busy times and the
// critical path alike. Sums of per-worker timings are a busy-time view
// across workers; callers rescale to a per-worker average afterwards (as
// train.RunEpoch does) when comparing against elapsed time.
func (t *Timing) Add(o Timing) {
	t.Sample += o.Sample
	t.Gather += o.Gather
	t.Train += o.Train
	t.Crit += o.Crit
}

// BuildBatch samples the multi-layer neighborhood of the given target nodes
// (original IDs), deduplicates each hop with AppendUnique, gathers the
// input features with the single-kernel global gather, and returns the
// batch plus the sample/gather timing split. Everything is charged to the
// device's current stream (the compute stream in the sequential training
// path) at the time of the call, whether or not the host math ran ahead of
// it. The returned batch aliases loader scratch and is valid only until the
// next-but-one build on this loader begins — with a plan open, that is
// inside the next BuildBatch call.
func (l *Loader) BuildBatch(targets []int64) (*gnn.Batch, Timing) {
	if l.pending {
		panic("core: BuildBatch with a prefetch pending; Collect it first")
	}
	l.mustBePlanned(targets)
	b := l.take(targets)
	f := l.bind(b)
	l.next ^= 1
	l.live = b
	l.runAhead()
	l.apply(b)
	return &f.batch, b.tm
}

// Plan announces the target lists of the next len(lists) builds, in order,
// so they may run ahead of their calls on a second goroutine: batch
// contents, Timing, clocks, Stats and trace are those of the same calls
// without a plan. While a plan is open every build must be the BuildBatch or
// Prefetch of its head — anything else panics — and lists and the slices it
// holds must not change. A build runs ahead from one build call to the
// next; once the last planned call has returned nothing of the plan is left.
// A plan that begins with the lists of outstanding speculative builds adopts
// them; any other discards them first.
func (l *Loader) Plan(lists [][]int64) {
	if len(l.plan) > 0 {
		panic(fmt.Sprintf("core: Plan with %d planned builds outstanding", len(l.plan)))
	}
	if l.pending {
		panic("core: Plan with a prefetch pending; Collect it first")
	}
	if l.spec {
		l.Join()
		adopt := l.nAhead <= len(lists)
		for i := 0; adopt && i < l.nAhead; i++ {
			adopt = slices.Equal(l.ahead[i].targets, lists[i])
		}
		if !adopt {
			l.rollback()
		} else {
			l.spec = false
			if l.cache != nil {
				l.cache.Hits += l.snap.specHits
				l.cache.Misses += l.snap.specMisses
			}
		}
	}
	l.plan = lists
}

// Speculate starts the builds of the first lists of a plan not announced
// yet — at most two — on the builder goroutine: the trainer hands it the
// next epoch's first batches during this epoch's last step. Nothing is
// bound or charged. A Plan that begins with the same lists adopts the
// builds; any other build first, or a Plan that begins otherwise, discards
// them and rewinds the sampler's stream and the cache's counters to where
// they stood, so batches, Timing, clocks, Stats and trace are those of
// never speculating. A no-op on stores that cannot be staged, and while
// builds run ahead already.
func (l *Loader) Speculate(lists [][]int64) {
	if len(l.plan) > 0 {
		panic(fmt.Sprintf("core: Speculate with %d planned builds outstanding", len(l.plan)))
	}
	if l.pending {
		panic("core: Speculate with a prefetch pending; Collect it first")
	}
	if l.bdev == l.Dev || l.nAhead > 0 || len(lists) == 0 {
		return
	}
	l.spec = true
	l.sampler.SaveRNG(&l.snap.rng)
	if l.cache != nil {
		l.snap.hits, l.snap.misses = l.cache.Hits, l.cache.Misses
	}
	l.startAhead(lists[:min(len(lists), len(l.ahead))])
}

// Join waits for the builds running ahead, if any. When it returns no
// goroutine works for the loader, and the cache's counters hold no lookup
// of a speculative build: those are set aside until a Plan adopts it.
func (l *Loader) Join() {
	if !l.running {
		return
	}
	<-l.done
	l.running = false
	if l.spec && l.cache != nil {
		c := l.cache
		l.snap.specHits, l.snap.specMisses = c.Hits-l.snap.hits, c.Misses-l.snap.misses
		c.Hits, c.Misses = l.snap.hits, l.snap.misses
	}
}

// rollback discards speculative builds and rewinds the sampler's stream;
// the join has rewound the cache's counters.
func (l *Loader) rollback() {
	l.Join()
	l.sampler.RestoreRNG(&l.snap.rng)
	l.ahead = [2]*buildBody{}
	l.nAhead = 0
	l.spec = false
}

// mustBePlanned panics unless targets may be built now: under a plan only
// its head may.
func (l *Loader) mustBePlanned(targets []int64) {
	if len(l.plan) > 0 && !slices.Equal(l.plan[0], targets) {
		// A build that ran ahead has consumed sampler RNG for the planned
		// list and cannot be undone.
		panic(fmt.Sprintf("core: build out of plan: %d targets that are not the next planned list (%d targets, %d lists outstanding)",
			len(targets), len(l.plan[0]), len(l.plan)))
	}
}

// take returns a body holding the build of targets, which mustBePlanned
// has let through: the one run ahead for it, or a free one computed into
// here. Under a plan it consumes the head; speculative builds are discarded
// first.
func (l *Loader) take(targets []int64) *buildBody {
	if l.spec {
		l.rollback()
	}
	if len(l.plan) > 0 {
		l.plan = l.plan[1:]
		if l.nAhead > 0 {
			l.Join()
			b := l.ahead[0]
			l.ahead = [2]*buildBody{l.ahead[1]}
			l.nAhead--
			if p := b.failed; p != nil {
				b.failed = nil
				l.ahead, l.nAhead, l.plan = [2]*buildBody{}, 0, nil
				panic(p)
			}
			return b
		}
	}
	b := l.freeBody()
	l.compute(b, targets)
	return b
}

// freeBody returns a body that neither a batch the caller may still read
// (the live one, a pending prefetch) nor a run-ahead build holds.
func (l *Loader) freeBody() *buildBody {
	for i := range l.bodies {
		b := &l.bodies[i]
		if b != l.live && !(l.pending && b == l.faces[l.next].body) && !slices.Contains(l.ahead[:l.nAhead], b) {
			return b
		}
	}
	panic("core: no free build body")
}

// bind shows body b on the next face and returns the face.
func (l *Loader) bind(b *buildBody) *batchFace {
	f := &l.faces[l.next]
	copy(f.blocks, b.blocks)
	f.feat = b.feat
	f.batch.Labels = b.labels
	f.body = b
	return f
}

// runAhead starts the build of the plan's head on the builder goroutine, if
// none is ahead and the store can be staged.
func (l *Loader) runAhead() {
	if len(l.plan) > 0 && l.nAhead == 0 && l.bdev != l.Dev {
		l.startAhead(l.plan[:1])
	}
}

// startAhead starts the builds of lists, in order, into free bodies on a
// builder goroutine.
func (l *Loader) startAhead(lists [][]int64) {
	for _, targets := range lists {
		b := l.freeBody()
		b.targets = targets
		l.ahead[l.nAhead] = b
		l.nAhead++
	}
	l.running = true
	select {
	case buildJobs <- l:
	default:
		go runBuilder()
		buildJobs <- l
	}
}

// buildJobs hands loaders whose ahead builds are to run to the process's
// builder goroutines. A loader gives its job to an idle builder, or starts
// one when none is idle, so there are as many builders as loaders have ever
// built ahead at once, and starting a build starts no goroutine: a goroutine
// per build allocated a runtime g whenever the per-P free lists of dead
// goroutines ran dry, about one build in four over a benchmark's first few
// hundred. An idle builder holds no loader.
var buildJobs = make(chan *Loader)

func runBuilder() {
	for l := range buildJobs {
		l.buildAhead()
	}
}

// buildAhead runs l's ahead builds in order and reports on done.
func (l *Loader) buildAhead() {
	defer func() { l.done <- struct{}{} }()
	for i, b := range l.ahead[:l.nAhead] {
		// A panic travels to the call that takes this build, and to those of
		// the builds after it, which never ran.
		if l.computeAhead(b); b.failed != nil {
			for _, r := range l.ahead[i+1 : l.nAhead] {
				r.failed = b.failed
			}
			return
		}
	}
}

// computeAhead is compute on the builder goroutine, keeping a panic in
// b.failed.
func (l *Loader) computeAhead(b *buildBody) {
	defer func() { b.failed = recover() }()
	l.compute(b, b.targets)
}

// Prefetch builds the batch for the given targets on the device's copy
// stream, overlapping whatever the compute stream is doing. The build is
// bound to the face not showing the most recently returned batch; the copy
// stream first waits for that face's release event, so a prefetch can never
// overwrite a batch compute still reads. Exactly one Collect must follow
// before the next Prefetch or BuildBatch. Under a plan targets must be its
// head, and the build of the next planned list starts on the builder
// goroutine.
//
// Prefetching changes only which virtual timeline the build is charged to:
// the sampler RNG and dedup order are those of a sequential BuildBatch
// with the same targets, so batch contents are bit-identical.
func (l *Loader) Prefetch(targets []int64) {
	if l.pending {
		panic("core: Prefetch with a prefetch already pending")
	}
	l.mustBePlanned(targets)
	f := &l.faces[l.next]
	// The build starts no earlier than its issue point on the current
	// (compute) stream — a stream cannot run work before the host enqueued
	// it — and no earlier than the face's release.
	issue := l.Dev.RecordEvent()
	prev := l.Dev.SetStream(sim.StreamCopy)
	l.Dev.WaitEvent(issue, "wait.issue")
	l.Dev.WaitEvent(f.free, "wait.slot")
	b := l.take(targets)
	l.bind(b)
	l.pending = true
	l.runAhead()
	l.apply(b)
	f.ready = l.Dev.RecordEvent()
	l.Dev.SetStream(prev)
}

// Collect returns the batch built by the preceding Prefetch, stalling the
// compute stream until the copy stream's ready event if the build is still
// in flight. The returned Timing carries the copy-stream Sample/Gather
// busy times of the build.
func (l *Loader) Collect() (*gnn.Batch, Timing) {
	if !l.pending {
		panic("core: Collect without a pending Prefetch")
	}
	f := &l.faces[l.next]
	l.next ^= 1
	l.pending = false
	l.live = f.body
	l.Dev.WaitEvent(f.ready, "wait.batch")
	return &f.batch, f.body.tm
}

// Release records on the compute stream that the most recently returned
// batch (from Collect or BuildBatch) is dead — typically right after
// backward. The face's next Prefetch waits on this event before showing
// another build.
func (l *Loader) Release() {
	l.faces[l.next^1].free = l.Dev.RecordEvent()
}

// PrefetchPages predicts which paged-store pages the batch for `targets`
// will touch — the first sampling hop's column ranges and the targets'
// feature rows — and faults up to maxPages of each (topology, features)
// on the copy stream ahead of demand, without blocking compute. The
// prediction is a heuristic over host-readable metadata (degrees, row
// indices); it never advances the sampler RNG, so batch contents are
// unchanged — hit rates and virtual time are the only effect. Returns
// the number of pages actually faulted. No-op on fully resident stores.
func (l *Loader) PrefetchPages(targets []int64, maxPages int) int {
	if maxPages <= 0 {
		return 0
	}
	pg := l.Store.PG
	// At most maxPages distinct ids per store, chosen in target order before
	// any residency check, so a linear scan beats a set.
	ids := l.pfIDs[:0]
	add := func(id int32) bool {
		if len(ids) >= maxPages {
			return false
		}
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
		return true
	}
	var total int
	if ts := pg.PagedTopo(); ts != nil && len(l.Fanouts) > 0 {
		fan := int64(l.Fanouts[0])
	predict:
		for _, v := range targets {
			_, e0, deg := pg.Adj(pg.Owner[v])
			if deg == 0 {
				continue
			}
			last := e0
			if deg <= fan {
				// Full-list read: every page the row spans.
				last = e0 + deg - 1
			}
			// Hubs get their first page only — sampled positions are
			// scattered and prefetching a hub's whole list would thrash.
			for id := ts.PageOf(e0); id <= ts.PageOf(last); id++ {
				if !add(id) {
					break predict
				}
			}
		}
		total += ts.PrefetchPages(l.Dev, ids)
		ids = ids[:0]
	}
	if fs := l.Store.FeatStore(); fs != nil {
		for _, v := range targets {
			if !add(fs.PageOf(pg.FeatRow(pg.Owner[v]))) {
				break
			}
		}
		total += fs.PrefetchPages(l.Dev, ids)
	}
	l.pfIDs = ids
	return total
}

// compute runs the sample/dedup/gather chain for targets into body b,
// charging bdev. On a staging twin that leaves the charges in the body for
// apply and touches nothing of the device, so it may run on the builder
// goroutine; on the device itself (a store that cannot be staged) the
// charges land on the current stream here and b.tm is final.
func (l *Loader) compute(b *buildBody, targets []int64) {
	b.tm = Timing{}
	pg := l.Store.PG
	dev := l.bdev
	staged := dev != l.Dev

	if b.nbs == nil {
		b.nbs = make([]sampling.Neighborhood, len(l.Fanouts))
		b.deds = make([]unique.Deduper, len(l.Fanouts))
		b.blocks = make([]spops.SubCSR, len(l.Fanouts))
	}

	if cap(b.curBuf) < len(targets) {
		b.curBuf = make([]graph.GlobalID, len(targets))
	}
	cur := b.curBuf[:len(targets)]
	for i, v := range targets {
		cur[i] = pg.Owner[v]
	}

	var t0 float64
	if staged {
		b.sample = b.sample[:0]
		dev.Record(&b.sample)
	} else {
		t0 = dev.Now()
	}
	for hop, fan := range l.Fanouts {
		nb := l.sampler.SampleLayerInto(&b.nbs[hop], cur, fan)
		uq := b.deds[hop].AppendUnique(dev, cur, nb.Neighbors)
		// The first sampled hop feeds the last GNN layer.
		blk := &b.blocks[len(l.Fanouts)-1-hop]
		blk.NumTargets = len(cur)
		blk.NumNodes = len(uq.Unique)
		blk.RowPtr = nb.Offsets
		blk.Col = uq.NeighborSubID
		blk.DupCount = uq.DupCount
		if pg.EdgeW != nil {
			// Gather the sampled edges' weights: single-element (4-byte)
			// accesses, the worst point of the Figure 8 curve.
			if cap(blk.EdgeW) < len(nb.EdgePos) {
				blk.EdgeW = make([]float32, len(nb.EdgePos))
			}
			blk.EdgeW = blk.EdgeW[:len(nb.EdgePos)]
			pg.EdgeW.GatherElems(dev, nb.EdgePos, blk.EdgeW, "gather.edgew")
		}
		cur = uq.Unique
	}

	// Global gather: one kernel reading every input node's feature row
	// from whichever GPU owns it.
	dim := pg.Dim
	if cap(b.rows) < len(cur) {
		b.rows = make([]int64, len(cur))
	}
	rows := b.rows[:len(cur)]
	for i, gid := range cur {
		rows[i] = pg.FeatRow(gid)
	}
	if n := len(cur) * dim; cap(b.feat.V) < n {
		b.feat.V = make([]float32, n)
	}
	b.feat.R, b.feat.C, b.feat.V = len(cur), dim, b.feat.V[:len(cur)*dim]
	var t1 float64
	if staged {
		b.gather = b.gather[:0]
		dev.Record(&b.gather)
	} else {
		t1 = dev.Now()
		b.tm.Sample = t1 - t0
	}
	if l.cache != nil {
		l.cache.GatherRowsOn(dev, rows, dim, b.feat.V, "gather.feat")
	} else {
		pg.Features().GatherRows(dev, rows, dim, b.feat.V, "gather.feat")
	}
	if staged {
		dev.Record(nil)
	} else {
		b.tm.Gather = dev.Now() - t1
	}

	if cap(b.labels) < len(targets) {
		b.labels = make([]int32, len(targets))
	}
	b.labels = b.labels[:len(targets)]
	for i, v := range targets {
		b.labels[i] = l.Store.DS.Labels[v]
	}
}

// apply issues the charges body b's build recorded, in order, on the
// device's current stream and times the two phases on its clock: every busy
// interval, Stats increment and clock value is the one compute would have
// produced by charging the device directly at this point. After a build
// that did charge the device directly there is nothing to issue.
func (l *Loader) apply(b *buildBody) {
	if l.bdev == l.Dev {
		return
	}
	t0 := l.Dev.Now()
	l.Dev.Issue(b.sample, 0)
	t1 := l.Dev.Now()
	b.tm.Sample = t1 - t0
	l.Dev.Issue(b.gather, 0)
	b.tm.Gather = l.Dev.Now() - t1
}

// EpochBatchesInto partitions the training set into shuffled mini-batches
// for one epoch; every call reshuffles. It works on caller-owned scratch: the
// shuffled copy of train overwrites *ids (grown when too small) and the
// batches, which alias it, overwrite out. A trainer that keeps both across
// epochs reshuffles without allocating.
func EpochBatchesInto(out [][]int64, ids *[]int64, train []int64, batchSize int, rng *rand.Rand) [][]int64 {
	rest := append((*ids)[:0], train...)
	*ids = rest
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out = out[:0]
	for len(rest) > 0 {
		n := min(batchSize, len(rest))
		out = append(out, rest[:n])
		rest = rest[n:]
	}
	return out
}

// ShardTraining splits the training IDs across nGPUs workers round-robin,
// the data-parallel partition of §III-D.
func ShardTraining(train []int64, nWorkers int) [][]int64 {
	out := make([][]int64, nWorkers)
	for i, v := range train {
		out[i%nWorkers] = append(out[i%nWorkers], v)
	}
	return out
}
