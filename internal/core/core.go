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

	"wholegraph/internal/blockcache"
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

// NewStoreOpts is NewStore with explicit storage backends. The values read
// are bit-identical across all backend combinations: paging changes virtual
// time and cache hit rates, never training results.
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

// PagedStats reports the paged feature and topology stores' Stats; the zero
// Stats for a table that is resident.
func (s *Store) PagedStats() (feat, topo blockcache.Stats) {
	if fs := s.FeatStore(); fs != nil {
		feat = fs.Stats()
	}
	if ts := s.TopoStore(); ts != nil {
		topo = ts.Stats()
	}
	return feat, topo
}

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
// into it — O(layers), the copy a trainer's step makes into its worker's
// own input header under train.Options.Schedule. ready is recorded on the
// copy stream when a prefetched build has been issued; free is recorded on
// the compute stream when the face's batch has been consumed (Release). The
// zero events never block.
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
	// targets is the list a build started ahead of its call is of, rng the
	// sampler's stream from before it, and failed the value that build
	// panicked with (nil if it did not).
	targets []int64
	rng     sampling.RNGState
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
// execution: it hints the next BuildBatch or Prefetch calls, and while the
// caller works on batch k a builder goroutine computes batch k+1 into a
// body no readable batch shows. Every build ahead can be undone: it saves
// the sampler's stream before it starts, and a call that builds anything
// else rewinds the stream and computes at the call.
//
// Ownership: the loader — device, faces, bodies, hint — belongs to its
// worker's goroutine. Between the start of a run-ahead build and the call
// that joins it, the builder goroutine owns the sampler (its RNG and
// sampling.Scratch), the twin and the bodies in ahead, and reads ahead; it
// never touches the device, a face or a body a face shows to the caller.
// The store is immutable. The send on buildJobs and the one on done order
// the hand-overs, so no locking is involved.
//
// A loader whose reads have effects a rewind cannot undo builds at the call
// point: over paged features or topology (which compare page-ready times
// with the clock and run the copy-stream event dance) and through a hot-row
// cache (which counts every lookup), bdev is the device itself, compute
// charges it at the call point, and Plan is a no-op.
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

	// plan holds the hinted target lists not handed out yet. ahead holds,
	// in order, the nAhead bodies of builds started ahead of their calls, of
	// plan[0], plan[1], …; running is set while a builder goroutine fills
	// them; it reports on done.
	plan    [][]int64
	ahead   [2]*buildBody
	nAhead  int
	running bool
	done    chan struct{}

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
// (see internal/cache); the cache must belong to the same device. Call it
// before the first build: from then on the loader builds at the call point,
// charging the device directly, since a build ahead would count lookups in
// the cache that undoing it could not take back.
func (l *Loader) WithCache(c *cache.FeatureCache) *Loader {
	if c != nil && c.Dev != l.Dev {
		panic("core: cache bound to a different device")
	}
	l.cache = c
	if c != nil {
		l.bdev, l.sampler.Dev = l.Dev, l.Dev
	}
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
// next-but-one build on this loader begins — with a hint open, that is
// inside the next BuildBatch call.
func (l *Loader) BuildBatch(targets []int64) (*gnn.Batch, Timing) {
	if l.pending {
		panic("core: BuildBatch with a prefetch pending; Collect it first")
	}
	b := l.take(targets)
	f := l.bind(b)
	l.next ^= 1
	l.live = b
	l.runAhead()
	l.apply(b)
	return &f.batch, b.tm
}

// Plan hints the target lists of the next builds, in order, so that they
// may run ahead of their calls on a builder goroutine: batch contents,
// Timing, clocks, Stats and trace are those of the same calls without a
// hint. A BuildBatch or Prefetch of the hint's head takes the build run
// ahead for it and starts the next one; any other build first undoes every
// build ahead, rewinding the sampler's stream to where the oldest started,
// and drops the hint. Plan keeps the builds ahead that its first lists match
// and undoes the rest; when none is left it starts the builds of its first
// lists, at most two. lists and the slices it holds must not change while
// they are hinted. A no-op on a loader that builds at the call point.
func (l *Loader) Plan(lists [][]int64) {
	if l.pending {
		panic("core: Plan with a prefetch pending; Collect it first")
	}
	if l.bdev == l.Dev {
		return
	}
	keep := 0
	for keep < min(l.nAhead, len(lists)) && slices.Equal(l.ahead[keep].targets, lists[keep]) {
		keep++
	}
	l.undo(keep)
	l.plan = lists
	if l.nAhead == 0 && len(lists) > 0 {
		l.startAhead(lists[:min(len(lists), len(l.ahead))])
	}
}

// Join waits for the builds running ahead, if any. When it returns no
// goroutine works for the loader.
func (l *Loader) Join() {
	if l.running {
		<-l.done
		l.running = false
	}
}

// undo discards the builds ahead from the keep-th on and rewinds the
// sampler's stream to where the first of them started.
func (l *Loader) undo(keep int) {
	if keep == l.nAhead {
		return
	}
	l.Join()
	l.sampler.RestoreRNG(&l.ahead[keep].rng)
	clear(l.ahead[keep:])
	l.nAhead = keep
}

// take returns a body holding the build of targets: the one run ahead for
// it if targets is the hint's head, or a free one computed into here. A build
// of anything else undoes the builds ahead and drops the hint first.
func (l *Loader) take(targets []int64) *buildBody {
	if len(l.plan) == 0 || !slices.Equal(l.plan[0], targets) {
		l.undo(0)
		l.plan = nil
	} else if l.plan = l.plan[1:]; l.nAhead > 0 {
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

// runAhead starts the build of the hint's head on the builder goroutine, if
// none is ahead.
func (l *Loader) runAhead() {
	if len(l.plan) > 0 && l.nAhead == 0 {
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

// buildAhead runs l's ahead builds in order, each after saving the
// sampler's stream into its body, and reports on done.
func (l *Loader) buildAhead() {
	defer func() { l.done <- struct{}{} }()
	for i, b := range l.ahead[:l.nAhead] {
		l.sampler.SaveRNG(&b.rng)
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
// before the next Prefetch or BuildBatch. When targets is the hint's head,
// the build of the next hinted list starts on the builder goroutine.
//
// Prefetching changes only which virtual timeline the build is charged to:
// the sampler RNG and dedup order are those of a sequential BuildBatch
// with the same targets, so batch contents are bit-identical.
func (l *Loader) Prefetch(targets []int64) {
	if l.pending {
		panic("core: Prefetch with a prefetch already pending")
	}
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
		l.cache.GatherRows(rows, dim, b.feat.V, "gather.feat")
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
