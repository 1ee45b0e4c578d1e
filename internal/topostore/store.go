// Package topostore is the out-of-core topology analogue of
// internal/featstore: the CSR column array (destination GlobalIDs,
// sharded by source rank and concatenated into one global edge index
// space) is served from fixed-edge-range pages produced on demand by a
// fill function, behind the same per-device byte-budgeted BlockCaches.
// A page miss pays the Unified-Memory fault dance on the device's copy
// stream; a hit reads local HBM. Sampling reads neighbors through an
// Access, which batches one fault dance per sampling kernel and joins
// any in-flight prefetch transfers, so paged sampling is bit-identical
// to the in-memory CSR — only virtual time and hit rates change.
package topostore

import (
	"fmt"
	"sync"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
)

// Fill writes the column values (destination GlobalIDs as uint64) for
// global edge indices [e0, e1) into dst. scratch is e1-e0 int64s of the
// caller's, for the fill's own use. Implementations must be deterministic
// — each value a function of its edge index alone — and safe for
// concurrent calls with distinct dst and scratch buffers
// (graph.PartitionPaged provides one backed by a graph.TopoSource).
type Fill func(e0, e1 int64, dst []uint64, scratch []int64)

// fillRun is the granule at which a resident page's payload is produced:
// the first read of an entry fills the aligned run of fillRun entries
// around it. Short adjacency lists are read whole, so a run amortizes the
// fill's row lookup over them without generating the rest of the page.
const fillRun = 64

// Options configures a Store.
type Options struct {
	// PageEdges is the number of column entries per page (default 4096,
	// 32 KiB of payload). The last page may be partial.
	PageEdges int
	// CacheBytes is each attached device's BlockCache budget in bytes of
	// decoded column payload (default 256 MiB).
	CacheBytes int64
	// Policy selects the BlockCache replacement/admission policy
	// (default blockcache.PolicyLRU). Residency-only: decoded neighbors
	// are identical under either policy.
	Policy blockcache.Policy
}

func (o Options) normalize() Options {
	if o.PageEdges <= 0 {
		o.PageEdges = 4096
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	return o
}

// colPage is one resident column range: a residency record — id,
// footprint and ready event, all the cache and the virtual clock look at
// — whose entries are filled run by run as they are first read (see
// fillRun). Values are a pure function of the edge index, so reads decode
// the same in any order.
type colPage struct {
	id  int32
	col []uint64
	// have marks the filled runs (bit g = entries [g*fillRun, (g+1)*fillRun)).
	have []uint64
	// ready is the copy-stream event after which the page is resident
	// (zero for demand faults, which wait inline; set by PrefetchPages).
	ready sim.Event
}

// pageMetaBytes is the per-page metadata charged on top of the payload.
const pageMetaBytes = 16

// CacheBytes implements blockcache.Block.
func (p *colPage) CacheBytes() int64 { return int64(len(p.col))*8 + pageMetaBytes }

// reset re-targets p — fresh or recycled — at page id holding n entries,
// none filled and with no ready event, reusing its buffers when they are
// big enough.
func (p *colPage) reset(id int32, n int) {
	if cap(p.col) < n {
		p.col = make([]uint64, n)
	}
	words := (n + 64*fillRun - 1) / (64 * fillRun)
	if cap(p.have) < words {
		p.have = make([]uint64, words)
	}
	*p = colPage{id: id, col: p.col[:n], have: p.have[:words]}
	clear(p.have)
}

// Store is the paged column table. Immutable after construction; all
// mutable state lives in the per-device caches.
type Store struct {
	fill     Fill
	opts     Options
	numEdges int64
	nPages   int32

	// caches holds one entry per attached device; extended only by
	// Attach, before training starts.
	caches []*devCache

	// hostPg is the page ReadEdge last touched (the uncharged host-side
	// path used by tests and host-side neighbor walks), re-targeted in
	// place when a read lands on another page.
	hostMu      sync.Mutex
	hostPg      colPage
	hostScratch [fillRun]int64
}

// devCache is one device's view of the store: its BlockCache plus the
// Access scratch. Like featstore's devCache, the scratch is unlocked —
// each device is driven by exactly one goroutine at a time — while the
// BlockCache keeps its own mutex.
type devCache struct {
	dev     *sim.Device
	bc      *blockcache.BlockCache
	acc     Access
	fresh   []*colPage // PrefetchPages scratch
	scratch [fillRun]int64

	// spare recycles the pages bc drops; released when a batch ends.
	spare blockcache.FreeList[*colPage]
}

// New builds a store over numEdges column entries served by fill.
func New(numEdges int64, fill Fill, opts Options) (*Store, error) {
	opts = opts.normalize()
	if numEdges < 0 {
		return nil, fmt.Errorf("topostore: negative edge count %d", numEdges)
	}
	if fill == nil {
		return nil, fmt.Errorf("topostore: nil fill function")
	}
	s := &Store{
		fill: fill, opts: opts, numEdges: numEdges,
		nPages: int32((numEdges + int64(opts.PageEdges) - 1) / int64(opts.PageEdges)),
	}
	s.hostPg.id = -1
	return s, nil
}

// Attach gives each device its own BlockCache. Call once per device
// before the first access.
func (s *Store) Attach(devs ...*sim.Device) {
	for _, d := range devs {
		dc := &devCache{
			dev: d,
			bc:  blockcache.NewBlockCacheWithPolicy(s.opts.CacheBytes, s.opts.Policy),
		}
		dc.acc = Access{s: s, dc: dc, pages: make(map[int32]*colPage)}
		dc.spare.Max = int(s.opts.CacheBytes/(int64(s.opts.PageEdges)*8+pageMetaBytes)) + 1
		s.caches = append(s.caches, dc)
	}
}

// NumEdges returns the stored column entry count.
func (s *Store) NumEdges() int64 { return s.numEdges }

// NumPages returns the page count (last page possibly partial).
func (s *Store) NumPages() int { return int(s.nPages) }

// PageEdges returns the edges-per-page setting.
func (s *Store) PageEdges() int { return s.opts.PageEdges }

// TopoBytes returns the virtual column footprint — what a materialized
// wholemem Col array would occupy, and the UM working set the
// fault-latency model sees.
func (s *Store) TopoBytes() int64 { return s.numEdges * 8 }

// CacheBudgetBytes returns the per-device BlockCache capacity.
func (s *Store) CacheBudgetBytes() int64 { return s.opts.CacheBytes }

// PageOf returns the page holding global edge index e.
func (s *Store) PageOf(e int64) int32 { return int32(e / int64(s.opts.PageEdges)) }

func (s *Store) cacheFor(dev *sim.Device) *devCache {
	for _, dc := range s.caches {
		if dc.dev == dev {
			return dc
		}
	}
	panic(fmt.Sprintf("topostore: device %d not attached", dev.ID))
}

// pageSpan returns page id's edge range [lo, hi).
func (s *Store) pageSpan(id int32) (lo, hi int64) {
	lo = int64(id) * int64(s.opts.PageEdges)
	hi = lo + int64(s.opts.PageEdges)
	if hi > s.numEdges {
		hi = s.numEdges
	}
	return
}

// newPage returns an unfilled page id, recycled when one is free.
func (s *Store) newPage(dc *devCache, id int32) *colPage {
	pg, ok := dc.spare.Take()
	if !ok {
		pg = new(colPage)
	}
	s.resetPage(pg, id)
	return pg
}

func (s *Store) resetPage(pg *colPage, id int32) {
	lo, hi := s.pageSpan(id)
	pg.reset(id, int(hi-lo))
}

// at returns entry off of pg, first filling the run around it if no
// earlier read has. The host pays for the runs that are read; the virtual
// clock charged the whole page when it was faulted in.
func (s *Store) at(pg *colPage, off int64, scratch *[fillRun]int64) uint64 {
	g := off / fillRun
	if pg.have[g>>6]&(1<<(g&63)) == 0 {
		r0 := g * fillRun
		r1 := min(r0+fillRun, int64(len(pg.col)))
		lo, _ := s.pageSpan(pg.id)
		s.fill(lo+r0, lo+r1, pg.col[r0:r1], scratch[:r1-r0])
		pg.have[g>>6] |= 1 << (g & 63)
	}
	return pg.col[off]
}

// Begin starts a page-aware access batch on dev: At decodes single
// column entries, tracking which pages were touched and which missed;
// Flush charges one copy-stream fault dance for all misses, joins any
// in-flight prefetch transfers, and resets the batch. One Access per
// device — Begin while a batch is open resets it.
func (s *Store) Begin(dev *sim.Device) *Access {
	acc := &s.cacheFor(dev).acc
	acc.reset()
	return acc
}

// Access is an open access batch; see Store.Begin.
type Access struct {
	s         *Store
	dc        *devCache
	pages     map[int32]*colPage
	fresh     []*colPage
	missBytes int64
	inflight  sim.Event
}

// reset ends the batch: nothing reads its pages any more, so the ones
// the cache dropped meanwhile become reusable.
func (a *Access) reset() {
	a.dc.spare.Release()
	clear(a.pages)
	a.fresh = a.fresh[:0]
	a.missBytes = 0
	a.inflight = sim.Event{}
}

// At returns the column value at global edge index e, faulting the
// holding page host-side if missing (the virtual-time charge is deferred
// to Flush). The value is identical whether the page was resident,
// missing, or admission-rejected.
func (a *Access) At(e int64) uint64 {
	s := a.s
	if e < 0 || e >= s.numEdges {
		panic(fmt.Sprintf("topostore: edge %d outside [0,%d)", e, s.numEdges))
	}
	id := s.PageOf(e)
	pg, ok := a.pages[id]
	if !ok {
		pg, _ = a.dc.bc.Get(id).(*colPage)
		if pg == nil {
			pg = s.newPage(a.dc, id)
			// A rejected insert (PolicyAdmit) still serves this batch via
			// a.pages; only residency for future batches changes.
			a.dc.bc.Put(id, pg, &a.dc.spare.Dropped)
			a.fresh = append(a.fresh, pg)
			a.missBytes += pg.CacheBytes()
		} else if pg.ready.T > a.inflight.T {
			a.inflight = pg.ready
		}
		a.pages[id] = pg
	}
	return s.at(pg, e-int64(id)*int64(s.opts.PageEdges), &a.dc.scratch)
}

// Flush charges the batch's page faults — one copy-stream UM fault dance
// covering every page missed since Begin/the last Flush — and makes the
// current stream wait for the migration plus any in-flight prefetched
// page the batch touched. Call before the kernel that consumes the
// decoded values. Returns the number of pages faulted.
func (a *Access) Flush(tag string) int {
	dev := a.dc.dev
	faulted := len(a.fresh)
	if faulted > 0 {
		issue := dev.RecordEvent()
		prev := dev.SetStream(sim.StreamCopy)
		dev.WaitEvent(issue, "topostore.issue")
		ws := float64(a.s.TopoBytes()) / 1e9
		dev.IdleFor(float64(faulted)*dev.UMAccessLatency(ws), "topostore.fault")
		dev.Kernel(sim.KernelCost{UMBytes: float64(a.missBytes), Tag: "topostore.pagein"})
		ready := dev.RecordEvent()
		dev.SetStream(prev)
		for _, pg := range a.fresh {
			pg.ready = ready
		}
		dev.WaitEvent(ready, "topostore.ready")
	}
	dev.WaitEvent(a.inflight, "topostore.prefetch.join")
	a.reset()
	return faulted
}

// PrefetchPages faults pages ids into dev's BlockCache ahead of demand.
// Issued on the copy stream with nothing waiting on it: pages carry the
// transfer's ready event and the first access batch to touch one joins
// it (free if the transfer already finished — the overlap win). Already
// resident pages are skipped without touching the demand counters; under
// PolicyAdmit the sketch can reject a speculative page outright, in
// which case no fault is charged. Returns the pages actually faulted.
func (s *Store) PrefetchPages(dev *sim.Device, ids []int32) int {
	dc := s.cacheFor(dev)
	fresh := dc.fresh[:0]
	var missBytes int64
	for _, id := range ids {
		if id < 0 || id >= s.nPages || dc.bc.Contains(id) {
			continue
		}
		pg := s.newPage(dc, id)
		if !dc.bc.PutPrefetched(id, pg, &dc.spare.Dropped) {
			continue
		}
		fresh = append(fresh, pg)
		missBytes += pg.CacheBytes()
	}
	dc.fresh = fresh
	if len(fresh) == 0 {
		return 0
	}
	issue := dev.RecordEvent()
	prev := dev.SetStream(sim.StreamCopy)
	dev.WaitEvent(issue, "topostore.prefetch.issue")
	ws := float64(s.TopoBytes()) / 1e9
	dev.IdleFor(float64(len(fresh))*dev.UMAccessLatency(ws), "topostore.prefetch.fault")
	dev.Kernel(sim.KernelCost{UMBytes: float64(missBytes), Tag: "topostore.prefetch"})
	ready := dev.RecordEvent()
	dev.SetStream(prev)
	for _, pg := range fresh {
		pg.ready = ready
	}
	return len(fresh)
}

// ReadEdge is the uncharged host-side read: the column value at e,
// exactly what an Access would decode, without touching device caches.
func (s *Store) ReadEdge(e int64) uint64 {
	if e < 0 || e >= s.numEdges {
		panic(fmt.Sprintf("topostore: edge %d outside [0,%d)", e, s.numEdges))
	}
	id := s.PageOf(e)
	s.hostMu.Lock()
	defer s.hostMu.Unlock()
	if s.hostPg.id != id {
		s.resetPage(&s.hostPg, id)
	}
	return s.at(&s.hostPg, e-int64(id)*int64(s.opts.PageEdges), &s.hostScratch)
}

// Stats is the store's configuration with the sum of every attached
// device's BlockCache counters (promoted from the embedded CacheStats).
type Stats struct {
	PageEdges  int    `json:"page_edges"`
	Pages      int    `json:"pages"`
	TopoBytes  int64  `json:"topo_bytes"`
	CacheBytes int64  `json:"cache_budget_bytes"`
	Devices    int    `json:"devices"`
	Policy     string `json:"policy"`
	blockcache.CacheStats
}

// Add folds another store's snapshot into st: the first store's
// configuration and column size stand for all of them (every machine node
// pages the same graph), budgets and counters sum.
func (st *Stats) Add(o Stats) {
	if st.PageEdges == 0 {
		st.PageEdges, st.Policy, st.TopoBytes = o.PageEdges, o.Policy, o.TopoBytes
	}
	st.Pages += o.Pages
	st.CacheBytes += o.CacheBytes
	st.Devices += o.Devices
	st.CacheStats.Add(o.CacheStats)
}

// String is the store's one-line report.
func (st Stats) String() string {
	return fmt.Sprintf("topology store (%d edges/page, %s): %v of %.1f MiB budget",
		st.PageEdges, st.Policy, st.CacheStats, float64(st.CacheBytes)/(1<<20))
}

// Stats snapshots the aggregate counters.
func (s *Store) Stats() Stats {
	st := Stats{
		PageEdges: s.opts.PageEdges, Pages: int(s.nPages),
		TopoBytes: s.TopoBytes(), CacheBytes: s.opts.CacheBytes,
		Devices: len(s.caches), Policy: s.opts.Policy.String(),
	}
	for _, dc := range s.caches {
		st.CacheStats.Add(dc.bc.Stats())
	}
	return st
}
