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
	if ds.Graph == nil && !opts.PagedTopo {
		return nil, fmt.Errorf("core: %s is out-of-core (no materialized CSR); it requires the paged topology store (StoreOptions.PagedTopo)", ds.Spec.Name)
	}
	if ds.Feat == nil && ds.Gen != nil && !opts.PagedFeatures {
		return nil, fmt.Errorf("core: %s has no materialized feature slab; it requires the paged feature store (StoreOptions.PagedFeatures)", ds.Spec.Name)
	}
	if ds.Spec.Weighted && opts.PagedTopo {
		return nil, fmt.Errorf("core: %s is weighted; edge weights require a materialized column array", ds.Spec.Name)
	}
	comm, err := wholemem.NewComm(m.NodeDevs(node))
	if err != nil {
		return nil, err
	}
	// Features partitioned with the graph only in flat-slab mode; the
	// paged store installs its own FeatureSource below.
	feat := ds.Feat
	if opts.PagedFeatures {
		feat = nil
	}
	var pg *graph.Partitioned
	switch {
	case opts.PagedTopo:
		var src graph.TopoSource
		if ds.Graph != nil {
			src = graph.CSRTopo{G: ds.Graph}
		} else {
			src = ds.Topo
		}
		pg, err = graph.PartitionPaged(src, feat, ds.Spec.FeatDim, comm, opts.Topo)
	case opts.PagedFeatures:
		pg, err = graph.Partition(ds.Graph, nil, ds.Spec.FeatDim, comm)
		if err == nil && ds.Spec.Weighted {
			pg.AttachEdgeWeights(graph.HashEdgeWeight)
		}
	default:
		// The flat store maps the dataset's one host layout: every node of
		// a machine, and every store built over the dataset, shares it.
		var l *graph.Layout
		if l, err = ds.HashLayout(comm.Size()); err == nil {
			pg = l.Map(comm)
		}
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

// loaderSlot is one entry of the loader's two-slot batch ring: the full
// batch-building scratch plus everything the produced batch aliases, and
// the two events that order slot reuse across streams. Each slot's scratch
// is reused in place, so the steady-state loop allocates nothing: per-hop
// neighborhoods, dedup workspaces and sub-CSR blocks (each hop needs its
// own, since all hops' blocks are alive in the returned batch at once),
// plus the frontier, feature-row, feature and label buffers.
type loaderSlot struct {
	curBuf []graph.GlobalID
	nbs    []*sampling.Neighborhood
	deds   []*unique.Deduper
	blocks []*spops.SubCSR
	rows   []int64
	feat   *tensor.Dense
	labels []int32
	batch  gnn.Batch
	tm     Timing
	// sample and gather list, in launch order, the kernels the two phases
	// of the slot's build staged on the loader's twin, for apply to issue on
	// the device. Empty when the build charged the device directly.
	sample, gather []sim.KernelCost
	// ready is recorded on the copy stream when a prefetched build
	// completes; free is recorded on the compute stream when the slot's
	// batch has been consumed (Release). The zero events never block.
	ready sim.Event
	free  sim.Event
}

// Loader builds training batches for one device. One loader per training
// process, as in the paper's one-process-per-GPU layout.
//
// Batches come out of a two-slot ring: a returned batch aliases its slot's
// scratch and stays valid while the other slot is (re)built, which is what
// lets Prefetch construct batch i+1 on the device's copy stream while
// compute still reads batch i.
//
// A build is two halves. compute is the host math — sample, AppendUnique,
// gather — and charges a staging twin of the device, which only lists the
// kernels; apply issues that list on the device at the call point, so the
// clocks, Stats and trace are those of a build that ran there. Prefetching
// overlaps virtual time only. Plan overlaps host execution: it announces
// the next BuildBatch calls, and while the caller works on batch k a second
// goroutine computes batch k+1 into the ring slot batch k-1 just vacated.
//
// Ownership: the loader — device, both slots, plan — belongs to its
// worker's goroutine. Between the start of a run-ahead build and the
// BuildBatch call that joins it, the builder goroutine owns the sampler
// (its RNG and sampling.Scratch), the hot-row cache's counters, the twin
// and the slot it fills, and reads plan and next; it never touches the
// device or the slot holding the live batch. The store is immutable. The go
// statement and the done channel order the hand-overs, so no locking is
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

	slots [2]loaderSlot
	// next indexes the slot the next build (BuildBatch or Prefetch) writes
	// to; the most recently returned batch lives in slots[next^1].
	next int
	// pending is set between Prefetch and Collect.
	pending bool

	// plan holds the announced target lists BuildBatch has not handed out
	// yet. ahead is set while the build of plan[0] into slots[next] is
	// running, or has finished, on the builder goroutine; its outcome (nil,
	// or the value it panicked with) arrives on done. buildAhead is that
	// goroutine's body, made once so that starting it allocates nothing.
	plan       [][]int64
	ahead      bool
	done       chan any
	buildAhead func()

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
	return &Loader{
		Store:   s,
		Dev:     dev,
		Fanouts: fanouts,
		bdev:    bdev,
		sampler: sampling.NewGPUSampler(s.PG, bdev, seed),
	}
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
	planned := len(l.plan) > 0
	if planned && !slices.Equal(l.plan[0], targets) {
		// A build that ran ahead has consumed sampler RNG for the planned
		// list and cannot be undone.
		panic(fmt.Sprintf("core: BuildBatch out of plan: %d targets that are not the next planned list (%d targets, %d lists outstanding)",
			len(targets), len(l.plan[0]), len(l.plan)))
	}
	s := &l.slots[l.next]
	if l.ahead {
		l.ahead = false
		if p := <-l.done; p != nil {
			panic(p)
		}
	} else {
		l.compute(s, targets)
	}
	l.next ^= 1
	if planned {
		l.plan = l.plan[1:]
		l.startAhead()
	}
	l.apply(s)
	return &s.batch, s.tm
}

// Plan announces the target lists of the next len(lists) BuildBatch calls,
// in order, so their builds may run ahead of the calls on a second
// goroutine: batch contents, Timing, clocks, Stats and trace are those of
// the same calls without a plan. While a plan is open every build must be
// the BuildBatch of its head — anything else panics — and lists and the
// slices it holds must not change. The builder goroutine lives from one
// BuildBatch to the next; once the last planned call has returned nothing
// of the plan is left.
func (l *Loader) Plan(lists [][]int64) {
	if len(l.plan) > 0 {
		panic(fmt.Sprintf("core: Plan with %d planned builds outstanding", len(l.plan)))
	}
	if l.pending {
		panic("core: Plan with a prefetch pending; Collect it first")
	}
	l.plan = lists
}

// startAhead starts the build of the plan's head into the slot the next
// BuildBatch will return, if there is a head and the store can be staged.
func (l *Loader) startAhead() {
	if len(l.plan) == 0 || l.bdev == l.Dev {
		return
	}
	if l.done == nil {
		l.done = make(chan any, 1)
		l.buildAhead = func() {
			// A panic travels to the BuildBatch that joins this build.
			defer func() { l.done <- recover() }()
			l.compute(&l.slots[l.next], l.plan[0])
		}
	}
	l.ahead = true
	go l.buildAhead()
}

// Prefetch builds the batch for the given targets on the device's copy
// stream, overlapping whatever the compute stream is doing. The build goes
// into the ring slot not aliased by the most recently returned batch; the
// copy stream first waits for that slot's release event, so a prefetch can
// never overwrite a batch compute still reads. Exactly one Collect must
// follow before the next Prefetch or BuildBatch.
//
// Prefetching changes only which virtual timeline the build is charged to:
// the sampler RNG and dedup order are those of a sequential BuildBatch
// with the same targets, so batch contents are bit-identical.
func (l *Loader) Prefetch(targets []int64) {
	if l.pending {
		panic("core: Prefetch with a prefetch already pending")
	}
	if len(l.plan) > 0 {
		panic("core: Prefetch with a plan open; planned builds go through BuildBatch")
	}
	s := &l.slots[l.next]
	// The build starts no earlier than its issue point on the current
	// (compute) stream — a stream cannot run work before the host enqueued
	// it — and no earlier than the slot's release.
	issue := l.Dev.RecordEvent()
	prev := l.Dev.SetStream(sim.StreamCopy)
	l.Dev.WaitEvent(issue, "wait.issue")
	l.Dev.WaitEvent(s.free, "wait.slot")
	l.compute(s, targets)
	l.apply(s)
	s.ready = l.Dev.RecordEvent()
	l.Dev.SetStream(prev)
	l.pending = true
}

// Collect returns the batch built by the preceding Prefetch, stalling the
// compute stream until the copy stream's ready event if the build is still
// in flight. The returned Timing carries the copy-stream Sample/Gather
// busy times of the build.
func (l *Loader) Collect() (*gnn.Batch, Timing) {
	if !l.pending {
		panic("core: Collect without a pending Prefetch")
	}
	s := &l.slots[l.next]
	l.next ^= 1
	l.pending = false
	l.Dev.WaitEvent(s.ready, "wait.batch")
	return &s.batch, s.tm
}

// Release records on the compute stream that the most recently returned
// batch (from Collect or BuildBatch) is dead — typically right after
// backward. The slot's next Prefetch waits on this event before
// overwriting the scratch.
func (l *Loader) Release() {
	l.slots[l.next^1].free = l.Dev.RecordEvent()
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

// compute runs the sample/dedup/gather chain for targets into slot s,
// charging bdev. On a staging twin that leaves the kernels in the slot for
// apply and touches nothing of the device, so it may run on the builder
// goroutine; on the device itself (a store that cannot be staged) the
// charges land on the current stream here and s.tm is final.
func (l *Loader) compute(s *loaderSlot, targets []int64) {
	s.tm = Timing{}
	pg := l.Store.PG
	dev := l.bdev
	staged := dev != l.Dev

	if s.nbs == nil {
		s.nbs = make([]*sampling.Neighborhood, len(l.Fanouts))
		s.deds = make([]*unique.Deduper, len(l.Fanouts))
		s.blocks = make([]*spops.SubCSR, len(l.Fanouts))
		for i := range s.nbs {
			s.nbs[i] = new(sampling.Neighborhood)
			s.deds[i] = unique.NewDeduper()
			s.blocks[i] = new(spops.SubCSR)
		}
	}

	if cap(s.curBuf) < len(targets) {
		s.curBuf = make([]graph.GlobalID, len(targets))
	}
	cur := s.curBuf[:len(targets)]
	for i, v := range targets {
		cur[i] = pg.Owner[v]
	}

	var t0 float64
	if !staged {
		t0 = dev.Now()
	}
	blocks := s.blocks
	for hop, fan := range l.Fanouts {
		nb := l.sampler.SampleLayerInto(s.nbs[hop], cur, fan)
		uq := s.deds[hop].AppendUnique(dev, cur, nb.Neighbors)
		// The first sampled hop feeds the last GNN layer.
		blk := blocks[len(l.Fanouts)-1-hop]
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
	if staged {
		s.sample = dev.SwapStaged(s.sample)
	} else {
		s.tm.Sample = dev.Now() - t0
	}

	// Global gather: one kernel reading every input node's feature row
	// from whichever GPU owns it.
	dim := pg.Dim
	if cap(s.rows) < len(cur) {
		s.rows = make([]int64, len(cur))
	}
	rows := s.rows[:len(cur)]
	for i, gid := range cur {
		rows[i] = pg.FeatRow(gid)
	}
	if s.feat == nil {
		s.feat = tensor.New(len(cur), dim)
	} else {
		n := len(cur) * dim
		if cap(s.feat.V) < n {
			s.feat.V = make([]float32, n)
		}
		s.feat.R, s.feat.C, s.feat.V = len(cur), dim, s.feat.V[:n]
	}
	feat := s.feat
	var t1 float64
	if !staged {
		t1 = dev.Now()
	}
	if l.cache != nil {
		l.cache.GatherRowsOn(dev, rows, dim, feat.V, "gather.feat")
	} else {
		pg.Features().GatherRows(dev, rows, dim, feat.V, "gather.feat")
	}
	if staged {
		s.gather = dev.SwapStaged(s.gather)
	} else {
		s.tm.Gather = dev.Now() - t1
	}

	if cap(s.labels) < len(targets) {
		s.labels = make([]int32, len(targets))
	}
	labels := s.labels[:len(targets)]
	for i, v := range targets {
		labels[i] = l.Store.DS.Labels[v]
	}
	s.batch = gnn.Batch{Blocks: blocks, Feat: feat, Labels: labels}
}

// apply issues the kernels slot s's build staged, in order, on the device's
// current stream and times the two phases on its clock: every busy
// interval, Stats increment and clock value is the one compute would have
// produced by charging the device directly at this point. After a build
// that did charge the device directly there is nothing to issue.
func (l *Loader) apply(s *loaderSlot) {
	if l.bdev == l.Dev {
		return
	}
	t0 := l.Dev.Now()
	for _, c := range s.sample {
		l.Dev.Kernel(c)
	}
	t1 := l.Dev.Now()
	s.tm.Sample = t1 - t0
	for _, c := range s.gather {
		l.Dev.Kernel(c)
	}
	s.tm.Gather = l.Dev.Now() - t1
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
