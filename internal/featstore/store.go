package featstore

import (
	"fmt"
	"sync"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
)

// RowSource produces feature rows on demand; the store never materializes
// the full float32 table. Implementations: a materialized slab
// (SliceSource), the dataset generator's counter-based per-node stream
// (dataset.FeatureGen, which satisfies this interface structurally), or a
// spilled page file (Spilled).
type RowSource interface {
	NumRows() int64
	Dim() int
	// FillRow writes row's dim float32 values into dst[:Dim()].
	// Implementations must be deterministic and safe for concurrent calls
	// with distinct dst buffers.
	FillRow(row int64, dst []float32)
}

// SliceSource adapts a row-major materialized slab to RowSource.
type SliceSource struct {
	Data []float32
	D    int
}

// NumRows returns the row count of the slab.
func (s *SliceSource) NumRows() int64 { return int64(len(s.Data) / s.D) }

// Dim returns the feature dimension.
func (s *SliceSource) Dim() int { return s.D }

// FillRow copies one slab row.
func (s *SliceSource) FillRow(row int64, dst []float32) {
	copy(dst, s.Data[row*int64(s.D):(row+1)*int64(s.D)])
}

// Options configures a Store.
type Options struct {
	// Encoding is the page codec (default Raw: bit-exact).
	Encoding Encoding
	// PageRows is the number of rows per page (default 256). The last page
	// may be partial.
	PageRows int
	// CacheBytes is each attached device's BlockCache budget in bytes of
	// encoded page payload (default 256 MiB).
	CacheBytes int64
	// Policy selects the BlockCache replacement/admission policy
	// (default PolicyLRU). PolicyAdmit changes only which pages stay
	// resident — decoded values are identical under either policy.
	Policy blockcache.Policy
}

func (o Options) normalize() Options {
	if o.PageRows <= 0 {
		o.PageRows = 256
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	return o
}

// Store is the paged feature table. It implements graph.FeatureSource:
// GatherRows decodes the requested rows out of each device's BlockCache,
// faulting missing pages in over the Unified-Memory path on the device's
// copy stream. The store itself is immutable after construction; all
// mutable state lives in the per-device caches.
type Store struct {
	src  RowSource
	opts Options

	nRows  int64
	dim    int
	nPages int32

	// caches holds one BlockCache per attached device. The slice is
	// extended only by Attach (before training starts); lookups during
	// gathers are read-only, so no lock is needed around the slice itself.
	caches []*devCache

	// hostPg is the page ReadRow last touched (an uncharged host-side
	// path used by cache fills and evaluation), re-targeted in place when
	// a read lands on another page; hostBuf is its staging scratch.
	hostMu  sync.Mutex
	hostPg  page
	hostBuf []float32
}

// devCache is one device's view of the store: its BlockCache plus gather
// scratch. The scratch is unlocked — like the loader's slot ring, each
// device is driven by exactly one goroutine at a time under
// sim.RunParallel — while the BlockCache keeps its own mutex so direct
// concurrent use (and the race detector) stay sound.
type devCache struct {
	dev *sim.Device
	bc  *blockcache.BlockCache
	// pages maps the page ids the current gather touched to their pages
	// (nil for an id PrefetchRows merely marked as seen).
	pages  map[int32]*page
	fresh  []*page
	ids    []int32
	rowBuf []float32

	// spare recycles the pages bc drops; released when a gather ends.
	spare blockcache.FreeList[*page]
}

// newPage returns an unmaterialized page id, recycled when one is free.
func (s *Store) newPage(dc *devCache, id int32) *page {
	pg, ok := dc.spare.Take()
	if !ok {
		pg = new(page)
	}
	s.resetPage(pg, id)
	return pg
}

func (s *Store) resetPage(pg *page, id int32) {
	lo, hi := s.pageSpan(id)
	rows := int(hi - lo)
	pg.reset(id, rows, rows*s.dim*s.opts.Encoding.BytesPerElem())
}

// New builds a store over src. Attach devices before gathering.
func New(src RowSource, opts Options) (*Store, error) {
	opts = opts.normalize()
	n, dim := src.NumRows(), src.Dim()
	if n < 0 || dim <= 0 {
		return nil, fmt.Errorf("featstore: bad source shape %d x %d", n, dim)
	}
	s := &Store{
		src: src, opts: opts, nRows: n, dim: dim,
		nPages: int32((n + int64(opts.PageRows) - 1) / int64(opts.PageRows)),
	}
	s.hostPg.id = -1
	return s, nil
}

// Attach gives each device its own BlockCache. Call once per device before
// the first gather; attaching mid-training would race with lookups.
func (s *Store) Attach(devs ...*sim.Device) {
	pageBytes := int64(s.opts.PageRows*s.dim*s.opts.Encoding.BytesPerElem()) + pageMetaBytes
	for _, d := range devs {
		dc := &devCache{
			dev:   d,
			bc:    blockcache.NewBlockCacheWithPolicy(s.opts.CacheBytes, s.opts.Policy),
			pages: make(map[int32]*page),
		}
		dc.spare.Max = int(s.opts.CacheBytes/pageBytes) + 1
		s.caches = append(s.caches, dc)
	}
}

// NumRows implements graph.FeatureSource.
func (s *Store) NumRows() int64 { return s.nRows }

// Dim implements graph.FeatureSource.
func (s *Store) Dim() int { return s.dim }

// Encoding returns the page codec in use.
func (s *Store) Encoding() Encoding { return s.opts.Encoding }

// PageRows returns the rows-per-page setting.
func (s *Store) PageRows() int { return s.opts.PageRows }

// NumPages returns the page count (last page possibly partial).
func (s *Store) NumPages() int { return int(s.nPages) }

// EncodedBytes returns the store's total encoded payload size — the
// virtual footprint a flat encoded table would occupy, and the UM working
// set the fault-latency model sees.
func (s *Store) EncodedBytes() int64 {
	return s.nRows * int64(s.dim) * int64(s.opts.Encoding.BytesPerElem())
}

// CacheBudgetBytes returns the per-device BlockCache capacity.
func (s *Store) CacheBudgetBytes() int64 { return s.opts.CacheBytes }

func (s *Store) cacheFor(dev *sim.Device) *devCache {
	for _, dc := range s.caches {
		if dc.dev == dev {
			return dc
		}
	}
	panic(fmt.Sprintf("featstore: device %d not attached", dev.ID))
}

// pageSpan returns page id's row range [lo, hi).
func (s *Store) pageSpan(id int32) (lo, hi int64) {
	lo = int64(id) * int64(s.opts.PageRows)
	hi = lo + int64(s.opts.PageRows)
	if hi > s.nRows {
		hi = s.nRows
	}
	return
}

// fillAll materializes every row of pg from the row source, using *buf
// (grown as needed) as the float32 staging area.
func (s *Store) fillAll(pg *page, buf *[]float32) {
	lo, _ := s.pageSpan(pg.id)
	need := pg.rows * s.dim
	if cap(*buf) < need {
		*buf = make([]float32, need)
	}
	stage := (*buf)[:need]
	for r := 0; r < pg.rows; r++ {
		s.src.FillRow(lo+int64(r), stage[r*s.dim:(r+1)*s.dim])
	}
	pg.encodeAll(s.opts.Encoding, stage)
}

// row decodes row r of pg into dst[:dim], first materializing it — the
// one row for Raw and Float16, the whole page for Quant8 — if no earlier
// read has. The host pays for the rows that are read; the virtual clock
// charged the whole page when it was faulted in.
func (s *Store) row(pg *page, r int, dst []float32, buf *[]float32) {
	if !pg.has(r) {
		if s.opts.Encoding == Quant8 {
			s.fillAll(pg, buf)
		} else {
			lo, _ := s.pageSpan(pg.id)
			s.src.FillRow(lo+int64(r), dst)
			pg.encodeRow(s.opts.Encoding, r, dst[:s.dim])
		}
	}
	pg.decodeRow(s.opts.Encoding, r, s.dim, dst)
}

// GatherRows implements graph.FeatureSource. It resolves each requested
// row's page against dev's BlockCache; distinct missing pages are faulted
// in on the copy stream — per-page UM fault latency plus encoded-byte
// migration at UM bulk bandwidth — and the current stream waits on the
// transfer before one decode kernel reads the (now resident, still
// encoded) rows at HBM random-access cost and widens them to float32
// in dst. Returns the virtual seconds the current stream advanced.
func (s *Store) GatherRows(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64 {
	if dim != s.dim {
		panic(fmt.Sprintf("featstore: dim %d != store dim %d", dim, s.dim))
	}
	if len(dst) < len(rows)*dim {
		panic("featstore: dst too small")
	}
	dc := s.cacheFor(dev)
	t0 := dev.Now()

	clear(dc.pages)
	dc.fresh = dc.fresh[:0]
	pageRows := int64(s.opts.PageRows)
	var missBytes int64
	var inflight sim.Event
	for _, row := range rows {
		if row < 0 || row >= s.nRows {
			panic(fmt.Sprintf("featstore: row %d outside [0,%d)", row, s.nRows))
		}
		id := int32(row / pageRows)
		if _, ok := dc.pages[id]; ok {
			continue
		}
		pg, _ := dc.bc.Get(id).(*page)
		if pg == nil {
			pg = s.newPage(dc, id)
			// A rejected insert (PolicyAdmit) still serves this gather via
			// dc.pages; only residency for future gathers changes.
			dc.bc.Put(id, pg, &dc.spare.Dropped)
			dc.fresh = append(dc.fresh, pg)
			missBytes += pg.CacheBytes()
		} else if pg.ready.T > inflight.T {
			// Hit on a page a prefetch may still be migrating: join its
			// copy-stream ready event instead of reading the future.
			inflight = pg.ready
		}
		dc.pages[id] = pg
	}

	if len(dc.fresh) > 0 {
		// Fault service runs on the copy stream: it can start no earlier
		// than this gather's issue point, and the gather's decode kernel
		// waits for the migration — the PR-3 event dance. Per-page fault
		// latency follows the Table I UM model at the store's working-set
		// size; the payload moves at UM bulk bandwidth.
		issue := dev.RecordEvent()
		prev := dev.SetStream(sim.StreamCopy)
		dev.WaitEvent(issue, "featstore.issue")
		ws := float64(s.EncodedBytes()) / 1e9
		dev.IdleFor(float64(len(dc.fresh))*dev.UMAccessLatency(ws), "featstore.fault")
		dev.Kernel(sim.KernelCost{UMBytes: float64(missBytes), Tag: "featstore.pagein"})
		ready := dev.RecordEvent()
		dev.SetStream(prev)
		for _, pg := range dc.fresh {
			pg.ready = ready
		}
		dev.WaitEvent(ready, "featstore.ready")
	}
	dev.WaitEvent(inflight, "featstore.prefetch.join")

	for i, row := range rows {
		id := int32(row / pageRows)
		r := int(row - int64(id)*pageRows)
		s.row(dc.pages[id], r, dst[i*dim:(i+1)*dim], &dc.rowBuf)
	}
	dc.spare.Release()
	elems := len(rows) * dim
	dev.Kernel(sim.KernelCost{
		RandBytes:   float64(elems * s.opts.Encoding.BytesPerElem()),
		FLOPs:       float64(elems) * s.opts.Encoding.decodeFLOPsPerElem(),
		StreamBytes: float64(4 * elems),
		Tag:         tag,
	})
	return dev.Now() - t0
}

// PrefetchRows faults the pages holding rows into dev's BlockCache ahead
// of demand, at most maxPages of them (0 = unlimited). The migration is
// issued on the copy stream and — unlike a demand fault — nothing waits
// on it: pages carry the transfer's ready event, and the first gather to
// touch one joins that event (free if the transfer already finished,
// the overlap win; a stall only if compute caught up with the copy
// stream). Already-resident pages are skipped without touching the
// demand hit/miss counters; under PolicyAdmit the sketch can reject a
// prefetch outright, in which case no fault is charged. Returns the
// number of pages actually faulted.
func (s *Store) PrefetchRows(dev *sim.Device, rows []int64, maxPages int) int {
	dc := s.cacheFor(dev)
	dc.ids = dc.ids[:0]
	clear(dc.pages)
	pageRows := int64(s.opts.PageRows)
	for _, row := range rows {
		if maxPages > 0 && len(dc.ids) == maxPages {
			break
		}
		if row < 0 || row >= s.nRows {
			continue
		}
		id := int32(row / pageRows)
		if _, seen := dc.pages[id]; !seen {
			dc.pages[id] = nil
			dc.ids = append(dc.ids, id)
		}
	}
	dc.fresh = dc.fresh[:0]
	var missBytes int64
	for _, id := range dc.ids {
		if dc.bc.Contains(id) {
			continue
		}
		pg := s.newPage(dc, id)
		if !dc.bc.PutPrefetched(id, pg, &dc.spare.Dropped) {
			continue // admission rejected a speculative page: skip, no charge
		}
		dc.fresh = append(dc.fresh, pg)
		missBytes += pg.CacheBytes()
	}
	if len(dc.fresh) == 0 {
		return 0
	}
	issue := dev.RecordEvent()
	prev := dev.SetStream(sim.StreamCopy)
	dev.WaitEvent(issue, "featstore.prefetch.issue")
	ws := float64(s.EncodedBytes()) / 1e9
	dev.IdleFor(float64(len(dc.fresh))*dev.UMAccessLatency(ws), "featstore.prefetch.fault")
	dev.Kernel(sim.KernelCost{UMBytes: float64(missBytes), Tag: "featstore.prefetch"})
	ready := dev.RecordEvent()
	dev.SetStream(prev)
	for _, pg := range dc.fresh {
		pg.ready = ready
	}
	return len(dc.fresh)
}

// ReadRow implements graph.FeatureSource: an uncharged host-side read that
// returns exactly what GatherRows would decode for the row (for Raw, the
// source bits verbatim; for lossy encodings, the codec's reconstruction).
func (s *Store) ReadRow(row int64, dst []float32) {
	if row < 0 || row >= s.nRows {
		panic(fmt.Sprintf("featstore: row %d outside [0,%d)", row, s.nRows))
	}
	id := int32(row / int64(s.opts.PageRows))
	s.hostMu.Lock()
	defer s.hostMu.Unlock()
	if s.hostPg.id != id {
		s.resetPage(&s.hostPg, id)
	}
	lo, _ := s.pageSpan(id)
	s.row(&s.hostPg, int(row-lo), dst, &s.hostBuf)
}

// Stats is the store's configuration with the sum of every attached
// device's BlockCache counters (promoted from the embedded CacheStats).
type Stats struct {
	Encoding     string `json:"encoding"`
	PageRows     int    `json:"page_rows"`
	Pages        int    `json:"pages"`
	EncodedBytes int64  `json:"encoded_bytes"`
	CacheBytes   int64  `json:"cache_budget_bytes"`
	Devices      int    `json:"devices"`
	Policy       string `json:"policy"`
	blockcache.CacheStats
}

// Add folds another store's snapshot into st: the first store's
// configuration stands for all of them, sizes and counters sum.
func (st *Stats) Add(o Stats) {
	if st.Encoding == "" {
		st.Encoding, st.PageRows, st.Policy = o.Encoding, o.PageRows, o.Policy
	}
	st.Pages += o.Pages
	st.EncodedBytes += o.EncodedBytes
	st.CacheBytes += o.CacheBytes
	st.Devices += o.Devices
	st.CacheStats.Add(o.CacheStats)
}

// String is the store's one-line report.
func (st Stats) String() string {
	return fmt.Sprintf("feature store (%s, %d rows/page, %s): %v of %.1f MiB budget",
		st.Encoding, st.PageRows, st.Policy, st.CacheStats, float64(st.CacheBytes)/(1<<20))
}

// Stats snapshots the aggregate counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Encoding: s.opts.Encoding.String(), PageRows: s.opts.PageRows,
		Pages: int(s.nPages), EncodedBytes: s.EncodedBytes(),
		CacheBytes: s.opts.CacheBytes, Devices: len(s.caches),
		Policy: s.opts.Policy.String(),
	}
	for _, dc := range s.caches {
		st.CacheStats.Add(dc.bc.Stats())
	}
	return st
}
