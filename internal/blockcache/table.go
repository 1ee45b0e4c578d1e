package blockcache

import (
	"fmt"

	"wholegraph/internal/sim"
)

// Page is a Block that a Table faults in, stamps and recycles. It is a
// residency record first — id, footprint and ready event are fixed the
// moment it is faulted in, and they are all the cache and the virtual clock
// ever look at — whose payload the owning store produces as it is read.
type Page interface {
	Block
	// Reset re-targets the page — fresh or recycled — at page id holding n
	// items, with nothing of its payload produced and no ready event,
	// reusing its buffers when they are big enough.
	Reset(id int32, n int)
	// ReadyEvent points at the copy-stream event after which the page is
	// resident on its device: set by the fault service that migrated it,
	// read by a demand hit so that it joins a prefetch still in flight
	// instead of reading the future.
	ReadyEvent() *sim.Event
}

// Shape is what a Table needs to know about the table it pages.
type Shape struct {
	// Name is the owning package; every trace tag starts with it.
	Name string
	// Items is the table's length (rows, column entries) and PageItems the
	// items per page; the last page may be partial.
	Items     int64
	PageItems int
	// ItemBytes is the payload of one item and MetaBytes the per-page
	// metadata charged on top of a page's payload.
	ItemBytes, MetaBytes int
	// CacheBytes is each attached device's BlockCache budget.
	CacheBytes int64
	Policy     Policy
}

// Table is one out-of-core table served page by page from per-device
// BlockCaches: the residency, fault-service, prefetch and page-recycling
// half of internal/featstore and internal/topostore, which differ only in
// what a page holds. A missing page is faulted in over the Unified-Memory
// path on the device's copy stream; a resident one is read from local HBM.
// The table is immutable after construction; all mutable state lives in the
// per-device batches.
type Table[P Page] struct {
	shape   Shape
	nPages  int32
	newPage func() P
	// wsGB is the table's footprint, the UM working set the fault-latency
	// model sees.
	wsGB float64
	// batches holds one entry per attached device. The slice is extended
	// only by Attach (before training starts); lookups are read-only.
	batches []*Batch[P]

	demand, prefetch serviceTags
	ready, join      string
}

// serviceTags label one fault service's intervals in the trace.
type serviceTags struct{ issue, fault, pagein string }

// NewTable builds the table of the given shape; newPage allocates an empty
// page when none can be recycled. Attach devices before the first batch.
func NewTable[P Page](shape Shape, newPage func() P) *Table[P] {
	n := shape.Name
	return &Table[P]{
		shape:    shape,
		nPages:   int32((shape.Items + int64(shape.PageItems) - 1) / int64(shape.PageItems)),
		newPage:  newPage,
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
func (t *Table[P]) Attach(devs ...*sim.Device) {
	pageBytes := int64(t.shape.PageItems*t.shape.ItemBytes + t.shape.MetaBytes)
	for _, d := range devs {
		b := &Batch[P]{
			t: t, dev: d, Index: len(t.batches),
			bc:    NewBlockCache(t.shape.CacheBytes, t.shape.Policy),
			pages: make(map[int32]P),
		}
		b.spare.Max = int(t.shape.CacheBytes/pageBytes) + 1
		t.batches = append(t.batches, b)
	}
}

// NumPages returns the page count (last page possibly partial).
func (t *Table[P]) NumPages() int { return int(t.nPages) }

// Devices returns the number of attached devices.
func (t *Table[P]) Devices() int { return len(t.batches) }

// PageOf returns the page holding item i.
func (t *Table[P]) PageOf(i int64) int32 { return int32(i / int64(t.shape.PageItems)) }

// Span returns page id's item range [lo, hi).
func (t *Table[P]) Span(id int32) (lo, hi int64) {
	lo = int64(id) * int64(t.shape.PageItems)
	return lo, min(lo+int64(t.shape.PageItems), t.shape.Items)
}

// Stats sums the attached devices' cache counters.
func (t *Table[P]) Stats() CacheStats {
	var st CacheStats
	for _, b := range t.batches {
		st.Add(b.bc.Stats())
	}
	return st
}

func (t *Table[P]) batchFor(dev *sim.Device) *Batch[P] {
	for _, b := range t.batches {
		if b.dev == dev {
			return b
		}
	}
	panic(fmt.Sprintf("%s: device %d not attached", t.shape.Name, dev.ID))
}

// Batch is one device's view of the table: its BlockCache, the pages the
// open access batch has touched, and the recycling list. A batch is Begin,
// any number of Page calls, Flush before the kernel that consumes what was
// read, and End once nothing reads the pages any more. The state is
// unlocked — like the loader's slot ring, each device is driven by exactly
// one goroutine at a time under sim.RunParallel — while the BlockCache keeps
// its own mutex so direct concurrent use (and the race detector) stay sound.
type Batch[P Page] struct {
	t   *Table[P]
	dev *sim.Device
	bc  *BlockCache
	// Index is the device's position in attach order, for the owning
	// store's own per-device scratch.
	Index int

	// pages maps the ids the batch touched to their pages, resident or
	// not: a page the cache rejected or has since evicted still serves the
	// batch from here.
	pages map[int32]P
	// fresh are the pages missed and not yet charged, missBytes their
	// footprint; inflight is the latest ready event among the batch's hits.
	fresh     []P
	missBytes int64
	inflight  sim.Event
	// spare recycles the pages bc drops; released when a batch ends.
	spare FreeList[P]
}

// Begin opens dev's access batch. One batch per device: Begin over a batch
// that still holds unflushed misses panics (see End).
func (t *Table[P]) Begin(dev *sim.Device) *Batch[P] {
	b := t.batchFor(dev)
	b.End()
	return b
}

// Page resolves page id for the batch: one cache lookup per distinct page
// per batch, a miss faulted in host-side at once (the virtual-time charge
// is deferred to Flush). A page the admission policy rejects still serves
// this batch; only residency for later batches changes.
func (b *Batch[P]) Page(id int32) P {
	if pg, ok := b.pages[id]; ok {
		return pg
	}
	pg, hit := b.bc.Get(id).(P)
	if !hit {
		pg = b.take(id)
		b.bc.Put(id, pg, &b.spare.Dropped)
		b.fresh = append(b.fresh, pg)
		b.missBytes += pg.CacheBytes()
	} else if ready := *pg.ReadyEvent(); ready.T > b.inflight.T {
		// A page a prefetch may still be migrating: Flush joins its ready
		// event.
		b.inflight = ready
	}
	b.pages[id] = pg
	return pg
}

// take returns an empty page id, recycled when one is free.
func (b *Batch[P]) take(id int32) P {
	pg, ok := b.spare.Take()
	if !ok {
		pg = b.t.newPage()
	}
	lo, hi := b.t.Span(id)
	pg.Reset(id, int(hi-lo))
	return pg
}

// Flush charges the batch's page faults — one fault service covering every
// page missed since Begin or the last Flush — and makes the current stream
// wait for the migration plus any in-flight prefetched page the batch
// touched. Returns the number of pages faulted.
func (b *Batch[P]) Flush() int {
	faulted := len(b.fresh)
	if faulted > 0 {
		b.dev.WaitEvent(b.service(&b.t.demand), b.t.ready)
	}
	b.dev.WaitEvent(b.inflight, b.t.join)
	return faulted
}

// End closes the batch: nothing reads its pages any more, so the ones the
// cache dropped meanwhile become reusable. A batch may not forget its
// faults — the missed pages are already in the cache, and ending (or
// reopening) the batch before Flush would leave their migration uncharged.
func (b *Batch[P]) End() {
	if len(b.fresh) > 0 {
		panic(fmt.Sprintf("%s: batch on device %d ended with %d unflushed page faults", b.t.shape.Name, b.dev.ID, len(b.fresh)))
	}
	b.spare.Release()
	clear(b.pages)
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
func (t *Table[P]) Prefetch(dev *sim.Device, ids []int32) int {
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
func (b *Batch[P]) service(tags *serviceTags) sim.Event {
	dev := b.dev
	issue := dev.RecordEvent()
	prev := dev.SetStream(sim.StreamCopy)
	dev.WaitEvent(issue, tags.issue)
	dev.IdleFor(float64(len(b.fresh))*dev.UMAccessLatency(b.t.wsGB), tags.fault)
	dev.Kernel(sim.KernelCost{UMBytes: float64(b.missBytes), Tag: tags.pagein})
	ready := dev.RecordEvent()
	dev.SetStream(prev)
	for _, pg := range b.fresh {
		*pg.ReadyEvent() = ready
	}
	b.fresh, b.missBytes = b.fresh[:0], 0
	return ready
}
