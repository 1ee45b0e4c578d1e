package featstore

import (
	"fmt"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// RowSource produces feature rows on demand; the store never materializes
// the full float32 table. Implementations: a materialized slab
// (SliceSource) or the dataset generator's counter-based per-node stream
// (dataset.FeatureGen, which satisfies this interface structurally).
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
// GatherRows decodes the requested rows out of each device's pages, which a
// blockcache.Table keeps resident, faults in over the Unified-Memory path
// and recycles; what is left here is what a feature page holds — the codecs
// and the demand materialisation of rows. The store itself is immutable
// after construction; all mutable state lives in the table's per-device
// batches and in gathers.
type Store struct {
	src  RowSource
	opts Options

	nRows int64
	dim   int
	tab   *blockcache.Table[*page]
	// gathers is one GatherRows scratch per attached device, indexed by the
	// batch's attach order.
	gathers []*gather
}

// gather is one device's GatherRows in flight: the call's arguments, its
// rows sorted by page, and what the fill — which tensor.Fanout may spread
// over several goroutines, a few pages at a time — needs per claimant.
type gather struct {
	s     *Store
	pages []*page
	rows  []int64
	dst   []float32
	reads blockcache.ReadList
	// stage is one float32 staging buffer per claimant (Quant8 materialises
	// a page whole); a claimant touches only its own.
	stage [][]float32
	// fill is the method value g.fillPages, made once so that a gather
	// allocates nothing.
	fill func(claimant, lo, hi int)
}

// fillChunk is how many pages a claimant of the fill takes at a time: a page
// costs from one decoded row (~0.1 µs) to PageRows generated ones, so a chunk
// is several microseconds of work against the ~20 ns of claiming it.
const fillChunk = 16

// fillPages produces and decodes the gather's rows on pages [lo, hi) of the
// batch. Pages are the unit of ownership: every row of a page, its bitmap and
// its value range are this claimant's until the fan-out joins, and dst rows
// belong to the read they answer.
func (g *gather) fillPages(claimant, lo, hi int) {
	s, dim := g.s, g.s.dim
	pageRows := int64(s.opts.PageRows)
	for p := lo; p < hi; p++ {
		pg := g.pages[p]
		first := int64(pg.id) * pageRows
		for _, i := range g.reads.Of(p) {
			s.row(pg, int(g.rows[i]-first), g.dst[int(i)*dim:(int(i)+1)*dim], &g.stage[claimant])
		}
	}
}

// New builds a store over src. Attach devices before gathering.
func New(src RowSource, opts Options) (*Store, error) {
	opts = opts.normalize()
	n, dim := src.NumRows(), src.Dim()
	if n < 0 || dim <= 0 {
		return nil, fmt.Errorf("featstore: bad source shape %d x %d", n, dim)
	}
	rowBytes := dim * opts.Encoding.BytesPerElem()
	tab := blockcache.NewTable(blockcache.Shape{
		Name: "featstore", Items: n, PageItems: opts.PageRows,
		ItemBytes: rowBytes, MetaBytes: pageMetaBytes,
		CacheBytes: opts.CacheBytes, Policy: opts.Policy,
	}, func() *page { return &page{rowBytes: rowBytes} })
	return &Store{src: src, opts: opts, nRows: n, dim: dim, tab: tab}, nil
}

// Attach gives each device its own BlockCache. Call once per device before
// the first gather; attaching mid-training would race with lookups.
func (s *Store) Attach(devs ...*sim.Device) {
	s.tab.Attach(devs...)
	for range devs {
		g := &gather{s: s}
		g.fill = g.fillPages
		s.gathers = append(s.gathers, g)
	}
}

// NumRows implements graph.FeatureSource.
func (s *Store) NumRows() int64 { return s.nRows }

// Dim implements graph.FeatureSource.
func (s *Store) Dim() int { return s.dim }

// NumPages returns the page count (last page possibly partial).
func (s *Store) NumPages() int { return s.tab.NumPages() }

// PageOf returns the page holding row.
func (s *Store) PageOf(row int64) int32 { return s.tab.PageOf(row) }

// EncodedBytes returns the store's total encoded payload size — the
// virtual footprint a flat encoded table would occupy, and the UM working
// set the fault-latency model sees.
func (s *Store) EncodedBytes() int64 {
	return s.nRows * int64(s.dim) * int64(s.opts.Encoding.BytesPerElem())
}

// fillAll materializes every row of pg from the row source, using *buf
// (grown as needed) as the float32 staging area.
func (s *Store) fillAll(pg *page, buf *[]float32) {
	lo, _ := s.tab.Span(pg.id)
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
			lo, _ := s.tab.Span(pg.id)
			s.src.FillRow(lo+int64(r), dst)
			pg.encodeRow(s.opts.Encoding, r, dst[:s.dim])
			if s.opts.Encoding == Raw {
				return // bit-exact: dst already holds what the row decodes to
			}
		}
	}
	pg.decodeRow(s.opts.Encoding, r, s.dim, dst)
}

// GatherRows implements graph.FeatureSource. It resolves each requested
// row's page against dev's BlockCache; distinct missing pages are faulted
// in by one fault service on the copy stream, and the current stream waits
// on the transfer before one decode kernel reads the (now resident, still
// encoded) rows at HBM random-access cost and widens them to float32
// in dst. Returns the virtual seconds the current stream advanced.
//
// Everything the clock, the cache or a counter can see happens here, on the
// device's goroutine, in row order. Producing and decoding the rows is pure
// host work and is handed out page by page (gather.fillPages) to as many
// goroutines as blockcache.Claimants allows, which changes no value.
func (s *Store) GatherRows(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64 {
	if dim != s.dim {
		panic(fmt.Sprintf("featstore: dim %d != store dim %d", dim, s.dim))
	}
	if len(dst) < len(rows)*dim {
		panic("featstore: dst too small")
	}
	t0 := dev.Now()
	pageRows := int64(s.opts.PageRows)
	b := s.tab.Begin(dev)
	g := s.gathers[b.Index]
	g.reads.Reset(len(rows))
	for i, row := range rows {
		if row < 0 || row >= s.nRows {
			panic(fmt.Sprintf("featstore: row %d outside [0,%d)", row, s.nRows))
		}
		g.reads.Slot[i] = int32(b.Slot(int32(row / pageRows)))
	}
	b.Flush()

	elems := len(rows) * dim
	g.pages, g.rows, g.dst = b.Pages(), rows, dst
	g.reads.Group(len(g.pages))
	w := blockcache.Claimants(4 * elems)
	for len(g.stage) < w {
		g.stage = append(g.stage, nil)
	}
	tensor.Fanout(w, len(g.pages), fillChunk, g.fill)
	g.pages, g.rows, g.dst = nil, nil, nil
	b.End()
	dev.Kernel(sim.KernelCost{
		RandBytes:   float64(elems * s.opts.Encoding.BytesPerElem()),
		FLOPs:       float64(elems) * s.opts.Encoding.decodeFLOPsPerElem(),
		StreamBytes: float64(4 * elems),
		Tag:         tag,
	})
	return dev.Now() - t0
}

// PrefetchPages faults pages ids into dev's BlockCache ahead of demand;
// see blockcache.Table.Prefetch. Returns the pages actually faulted.
func (s *Store) PrefetchPages(dev *sim.Device, ids []int32) int {
	return s.tab.Prefetch(dev, ids)
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

// Add folds another machine node's store into st. Every node pages the same
// table, so the first store's shape (encoding, page size, pages, table
// bytes, policy) stands for all of them; budgets, devices and counters sum.
func (st *Stats) Add(o Stats) {
	if st.Devices == 0 {
		st.Encoding, st.PageRows, st.Pages, st.EncodedBytes, st.Policy =
			o.Encoding, o.PageRows, o.Pages, o.EncodedBytes, o.Policy
	}
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
	return Stats{
		Encoding: s.opts.Encoding.String(), PageRows: s.opts.PageRows,
		Pages: s.NumPages(), EncodedBytes: s.EncodedBytes(),
		CacheBytes: s.opts.CacheBytes, Devices: s.tab.Devices(),
		Policy: s.opts.Policy.String(), CacheStats: s.tab.Stats(),
	}
}
