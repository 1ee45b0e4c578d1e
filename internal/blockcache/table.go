package blockcache

import (
	"fmt"
	"sync/atomic"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Page is one page of a Table: PageItems items (fewer on the table's last
// page) of Shape.ItemVals values each, produced as they are first read,
// Shape.Granule items at a time — a feature row, a run of column entries.
// It is a residency record first: its id, footprint and ready event are
// fixed the moment it is faulted in, and they are all the cache and the
// virtual clock ever look at. The owning store produces the values, each a
// function of its index alone, so what a read sees never depends on touch
// order or cache history.
type Page[V any] struct {
	id int32
	// Vals holds the page's items, one after another.
	Vals []V
	// have marks the produced granules (bit g = granule g).
	have  []uint64
	bytes int64
	// ready is the copy-stream event after which the page is resident on
	// its device: set by the fault service that migrated it, read by a
	// demand hit so that it joins a prefetch still in flight instead of
	// reading the future.
	ready sim.Event
}

// ID returns the page's index in its table.
func (p *Page[V]) ID() int32 { return p.id }

// CacheBytes implements Block: the payload plus the page metadata.
func (p *Page[V]) CacheBytes() int64 { return p.bytes }

// Ready returns the copy-stream event after which the page is resident; the
// zero Event for a page no fault service has stamped yet.
func (p *Page[V]) Ready() sim.Event { return p.ready }

// Has reports whether granule g has been produced.
func (p *Page[V]) Has(g int) bool { return p.have[g>>6]&(1<<(g&63)) != 0 }

// Mark records granule g as produced.
func (p *Page[V]) Mark(g int) { p.have[g>>6] |= 1 << (g & 63) }

// reset re-targets the page — fresh or recycled — at page id holding n items
// of shape s, nothing produced and no ready event, reusing its buffers when
// they are big enough.
func (p *Page[V]) reset(id int32, n int, s *Shape) {
	vals := n * s.ItemVals
	if cap(p.Vals) < vals {
		p.Vals = make([]V, vals)
	}
	words := ((n+s.Granule-1)/s.Granule + 63) / 64
	if cap(p.have) < words {
		p.have = make([]uint64, words)
	}
	*p = Page[V]{id: id, Vals: p.Vals[:vals], have: p.have[:words], bytes: int64(n*s.ItemBytes + s.MetaBytes)}
	clear(p.have)
}

// Shape is what a Table needs to know about the table it pages.
type Shape struct {
	// Name is the owning package; every trace tag starts with it. Unit
	// names an item in reports ("rows", "edges").
	Name, Unit string
	// Items is the table's length and PageItems the items per page; the
	// last page may be partial.
	Items     int64
	PageItems int
	// ItemVals is the values an item holds and ItemBytes their payload;
	// MetaBytes is the per-page metadata charged on top of a page's payload.
	ItemVals, ItemBytes, MetaBytes int
	// Granule is the items a page produces together, on the first read of
	// any of them.
	Granule int
	// CacheBytes is each attached device's BlockCache budget.
	CacheBytes int64
	Policy     Policy
}

// Table is one out-of-core table served page by page from per-device
// BlockCaches: the residency, fault-service, prefetch and page-recycling
// half of internal/featstore and internal/topostore, which differ only in
// how a page's values are produced. A missing page is faulted in over the
// Unified-Memory path on the device's copy stream; a resident one is read
// from local HBM. The table is immutable after construction; all mutable
// state lives in the per-device batches.
type Table[V any] struct {
	shape  Shape
	nPages int32
	// wsGB is the table's footprint, the UM working set the fault-latency
	// model sees.
	wsGB float64
	// batches holds one entry per attached device. The slice is extended
	// only by Attach (before training starts); lookups are read-only.
	batches []*Batch[V]

	demand, prefetch serviceTags
	ready, join      string
	// onTake, when set, sees every page take hands out (the table tests'
	// record of what an operation produced).
	onTake func(*Page[V])
}

// serviceTags label one fault service's intervals in the trace.
type serviceTags struct{ issue, fault, pagein string }

// NewTable builds the table of the given shape. Attach devices before the
// first batch.
func NewTable[V any](shape Shape) *Table[V] {
	n := shape.Name
	return &Table[V]{
		shape:    shape,
		nPages:   int32((shape.Items + int64(shape.PageItems) - 1) / int64(shape.PageItems)),
		wsGB:     float64(shape.Items*int64(shape.ItemBytes)) / 1e9,
		demand:   serviceTags{n + ".issue", n + ".fault", n + ".pagein"},
		prefetch: serviceTags{n + ".prefetch.issue", n + ".prefetch.fault", n + ".prefetch"},
		ready:    n + ".ready",
		join:     n + ".prefetch.join",
	}
}

// Attach gives each device its own BlockCache and batch. Call once per
// device before the first access; attaching mid-training would race with
// lookups.
func (t *Table[V]) Attach(devs ...*sim.Device) {
	pageBytes := int64(t.shape.PageItems*t.shape.ItemBytes + t.shape.MetaBytes)
	for _, d := range devs {
		b := &Batch[V]{
			t: t, dev: d, Index: len(t.batches),
			bc:    NewBlockCache(t.shape.CacheBytes, t.shape.Policy),
			slots: make(map[int32]int32),
		}
		b.cachePages = int(t.shape.CacheBytes/pageBytes) + 1
		b.spare.Max = b.cachePages
		t.batches = append(t.batches, b)
	}
}

// NumPages returns the page count (last page possibly partial).
func (t *Table[V]) NumPages() int { return int(t.nPages) }

// Devices returns the number of attached devices.
func (t *Table[V]) Devices() int { return len(t.batches) }

// PageOf returns the page holding item i.
func (t *Table[V]) PageOf(i int64) int32 { return int32(i / int64(t.shape.PageItems)) }

// Span returns page id's item range [lo, hi).
func (t *Table[V]) Span(id int32) (lo, hi int64) {
	lo = int64(id) * int64(t.shape.PageItems)
	return lo, min(lo+int64(t.shape.PageItems), t.shape.Items)
}

// Stats reports the table's shape with the sum of the attached devices'
// cache counters and page pools.
func (t *Table[V]) Stats() Stats {
	st := Stats{
		Name: t.shape.Name, Unit: t.shape.Unit, PageItems: t.shape.PageItems,
		Pages: int(t.nPages), TableBytes: t.shape.Items * int64(t.shape.ItemBytes),
		CacheBytes: t.shape.CacheBytes, Devices: len(t.batches), Policy: t.shape.Policy.String(),
	}
	for _, b := range t.batches {
		st.CacheStats.Add(b.bc.Stats())
		st.PagesAllocated += b.allocated.Load()
	}
	return st
}

func (t *Table[V]) batchFor(dev *sim.Device) *Batch[V] {
	for _, b := range t.batches {
		if b.dev == dev {
			return b
		}
	}
	panic(fmt.Sprintf("%s: device %d not attached", t.shape.Name, dev.ID))
}

// Batch is one device's view of the table: its BlockCache, the pages the
// open access batch has touched, and the recycling list. A batch is Begin,
// any number of Page or Slot calls, Flush before the kernel that consumes
// what was read, and End once nothing reads the pages any more. The state is
// unlocked — like the loader's slot ring, each device is driven by exactly
// one goroutine at a time under sim.RunParallel — while the BlockCache keeps
// its own mutex so direct concurrent use (and the race detector) stay sound.
//
// Residency is that goroutine's alone: every Slot, Flush and End runs on
// it, in program order. What the owning store may hand to other goroutines
// (tensor.Fanout, as many as Claimants allows) is the production of the
// payload of pages the batch already holds, split so that no page — its
// payload, its bitmap words — is seen by two of them.
type Batch[V any] struct {
	t   *Table[V]
	dev *sim.Device
	bc  *BlockCache
	// Index is the device's position in attach order, for the owning
	// store's own per-device scratch.
	Index int

	// slots maps the ids the batch touched to their position in pages,
	// which lists them in first-touch order, resident or not: a page the
	// cache rejected or has since evicted still serves the batch from here.
	slots map[int32]int32
	pages []*Page[V]
	// fresh are the pages missed and not yet charged, missBytes their
	// footprint; inflight is the latest ready event among the batch's hits.
	fresh     []*Page[V]
	missBytes int64
	inflight  sim.Event
	// spare recycles the pages bc drops; released when a batch ends. Its
	// bound follows the largest batch seen (End): cachePages, the pages the
	// budget holds plus one, on top of the pages one batch pinned.
	spare      FreeList[*Page[V]]
	cachePages int
	// allocated counts the pages made for this device.
	allocated atomic.Int64
}

// Begin opens dev's access batch. One batch per device: Begin over a batch
// that still holds unflushed misses panics (see End).
func (t *Table[V]) Begin(dev *sim.Device) *Batch[V] {
	b := t.batchFor(dev)
	b.End()
	return b
}

// Page resolves page id for the batch; see Slot.
func (b *Batch[V]) Page(id int32) *Page[V] { return b.pages[b.Slot(id)] }

// Pages lists the pages the batch has touched, indexed by slot. Valid until
// End.
func (b *Batch[V]) Pages() []*Page[V] { return b.pages }

// Slot resolves page id for the batch and returns its index in Pages: one
// cache lookup per distinct page per batch, a miss faulted in host-side at
// once (the virtual-time charge is deferred to Flush). A page the admission
// policy rejects still serves this batch; only residency for later batches
// changes. Slots count up from zero in first-touch order, so a store can
// sort what it reads by page without a second lookup.
func (b *Batch[V]) Slot(id int32) int {
	if slot, ok := b.slots[id]; ok {
		return int(slot)
	}
	pg, hit := b.bc.Get(id).(*Page[V])
	if !hit {
		pg = b.take(id)
		b.bc.Put(id, pg, &b.spare.Dropped)
		b.fresh = append(b.fresh, pg)
		b.missBytes += pg.CacheBytes()
	} else if pg.ready.T > b.inflight.T {
		// A page a prefetch may still be migrating: Flush joins its ready
		// event.
		b.inflight = pg.ready
	}
	b.slots[id] = int32(len(b.pages))
	b.pages = append(b.pages, pg)
	return len(b.pages) - 1
}

// take returns an empty page id, recycled when one is free.
func (b *Batch[V]) take(id int32) *Page[V] {
	pg, ok := b.spare.Take()
	if !ok {
		pg = new(Page[V])
		b.allocated.Add(1)
	}
	lo, hi := b.t.Span(id)
	pg.reset(id, int(hi-lo), &b.t.shape)
	if b.t.onTake != nil {
		b.t.onTake(pg)
	}
	return pg
}

// Flush charges the batch's page faults — one fault service covering every
// page missed since Begin or the last Flush — and makes the current stream
// wait for the migration plus any in-flight prefetched page the batch
// touched. Returns the number of pages faulted.
func (b *Batch[V]) Flush() int {
	faulted := len(b.fresh)
	if faulted > 0 {
		b.dev.WaitEvent(b.service(&b.t.demand), b.t.ready)
	}
	b.dev.WaitEvent(b.inflight, b.t.join)
	return faulted
}

// End closes the batch: nothing reads its pages any more, so the ones the
// cache dropped meanwhile become reusable — all of them, even when the batch
// pinned more pages than the cache holds: the free list's bound grows to the
// largest batch seen on top of the cache, so such a workload stops
// allocating after its second batch (CacheStats.PagesAllocated). A batch may
// not forget its faults — the missed pages are already in the cache, and
// ending (or reopening) the batch before Flush would leave their migration
// uncharged.
func (b *Batch[V]) End() {
	if len(b.fresh) > 0 {
		panic(fmt.Sprintf("%s: batch on device %d ended with %d unflushed page faults", b.t.shape.Name, b.dev.ID, len(b.fresh)))
	}
	b.spare.Max = max(b.spare.Max, len(b.pages)+b.cachePages)
	b.spare.Release()
	clear(b.slots)
	clear(b.pages)
	b.pages = b.pages[:0]
	b.inflight = sim.Event{}
}

// Prefetch faults pages ids into dev's BlockCache ahead of demand. The
// migration is issued on the copy stream and — unlike a demand fault —
// nothing waits on it: pages carry the transfer's ready event, and the first
// batch to touch one joins that event (free if the transfer already
// finished, the overlap win; a stall only if compute caught up with the
// copy stream). Already-resident pages are skipped without touching the
// demand hit/miss counters; under PolicyAdmit the sketch can reject a
// speculative page outright, in which case no fault is charged. Returns the
// number of pages actually faulted.
func (t *Table[V]) Prefetch(dev *sim.Device, ids []int32) int {
	b := t.batchFor(dev)
	if len(b.fresh) > 0 {
		panic(fmt.Sprintf("%s: prefetch on device %d inside a batch with unflushed page faults", t.shape.Name, dev.ID))
	}
	for _, id := range ids {
		if id < 0 || id >= t.nPages || b.bc.Contains(id) {
			continue
		}
		pg := b.take(id)
		if !b.bc.PutPrefetched(id, pg, &b.spare.Dropped) {
			continue
		}
		b.fresh = append(b.fresh, pg)
		b.missBytes += pg.CacheBytes()
	}
	faulted := len(b.fresh)
	if faulted > 0 {
		b.service(&t.prefetch)
	}
	return faulted
}

// service is the Unified-Memory fault service, the one place a page
// migration is priced: on the copy stream, starting no earlier than the
// current stream's issue point, per-page fault latency following the Table I
// UM model at the table's working-set size, then the payload at UM bulk
// bandwidth. Every serviced page is stamped with the returned ready event.
func (b *Batch[V]) service(tags *serviceTags) sim.Event {
	dev := b.dev
	issue := dev.RecordEvent()
	prev := dev.SetStream(sim.StreamCopy)
	dev.WaitEvent(issue, tags.issue)
	dev.IdleFor(float64(len(b.fresh))*dev.UMAccessLatency(b.t.wsGB), tags.fault)
	dev.Kernel(sim.KernelCost{UMBytes: float64(b.missBytes), Tag: tags.pagein})
	ready := dev.RecordEvent()
	dev.SetStream(prev)
	for _, pg := range b.fresh {
		pg.ready = ready
	}
	b.fresh, b.missBytes = b.fresh[:0], 0
	return ready
}

// fanoutMinBytes is the decoded payload a batch must read before its fill is
// shared. On the 2-vCPU reference box a fan-out ties the inline loop up to
// ~280 µs of fills and wins from ~580 µs (tensor's BenchmarkFillFanout,
// -cpu 2: 256 and 512 fills of a microsecond; a parked helper takes tens of
// microseconds to wake). A generated 128-wide feature row — 512 decoded
// bytes — or the run fills behind five sampled edges cost about that
// microsecond, a row copied from a resident slab a quarter of it; at 512
// rows' worth the generators are past the crossover and a slab is at the tie.
const fanoutMinBytes = 256 << 10

// Claimants returns how many goroutines may share the fill of a batch that
// reads about payload bytes: tensor.Workers(), or one — the fill is then
// inline, on the device's goroutine — for a small batch, with
// sim.SetParallel(false) or with tensor.SetWorkers(1). Pass it to
// tensor.Fanout together with the batch's page count.
func Claimants(payload int) int {
	if payload < fanoutMinBytes || !sim.ParallelEnabled() {
		return 1
	}
	return tensor.Workers()
}

// ReadList is the reads of one batch sorted by page, the work list of a
// page-disjoint fan-out: the store notes the Slot of the page each read
// touched, in read order, and Group turns that into one run of reads per
// page. The buffers persist, so a steady-state batch allocates nothing.
type ReadList struct {
	// Slot holds, per read, Batch.Slot of the page it touched.
	Slot         []int32
	start, order []int32
}

// Reset empties the list and sizes Slot for n reads.
func (r *ReadList) Reset(n int) {
	if cap(r.Slot) < n {
		r.Slot = make([]int32, n)
		r.order = make([]int32, n)
	}
	r.Slot, r.order = r.Slot[:n], r.order[:n]
}

// Group sorts the reads by slot (a counting sort, stable) for a batch of the
// given page count.
func (r *ReadList) Group(pages int) {
	if cap(r.start) < pages+1 {
		r.start = make([]int32, pages+1)
	}
	r.start = r.start[:pages+1]
	clear(r.start)
	for _, s := range r.Slot {
		r.start[s+1]++
	}
	for p := 0; p < pages; p++ {
		r.start[p+1] += r.start[p]
	}
	// Place each read at its page's cursor; afterwards start[p] has moved
	// to the end of page p's run, which is where page p+1's began, so one
	// shift restores it.
	for i, s := range r.Slot {
		r.order[r.start[s]] = int32(i)
		r.start[s]++
	}
	copy(r.start[1:], r.start[:pages])
	r.start[0] = 0
}

// Of returns the reads that touched the page in slot p, in read order.
func (r *ReadList) Of(p int) []int32 { return r.order[r.start[p]:r.start[p+1]] }
