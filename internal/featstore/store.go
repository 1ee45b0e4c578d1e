// Package featstore is the paged feature store: the out-of-core backing for
// node features too large for the flat in-memory slab (ogbn-papers100M at
// full scale is ~57 GB of float32). Rows live in fixed-size pages of raw
// float32, as WholeGraph keeps them in GPU memory; each GPU keeps a
// byte-budgeted LRU BlockCache of pages in its HBM, and a page miss pays the
// Unified-Memory page-fault cost on the device's copy stream, while a hit
// pays only local HBM. Training through the store produces losses
// bit-identical to the flat slab.
package featstore

import (
	"fmt"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Encoding names a page format. Raw float32 is the only one; the type,
// ParseEncoding and Options.Encoding stay because the benchmark module
// (benchmark/train.go) names them, and they go with its next edit (ROADMAP
// items 9 and 21).
type Encoding uint8

// Raw stores IEEE-754 float32 values: 4 bytes per element, bit-exact.
const Raw Encoding = 0

// ParseEncoding resolves a CLI spelling of the page format: "", "raw" or
// "float32".
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "", "raw", "float32":
		return Raw, nil
	}
	return Raw, fmt.Errorf("featstore: unknown encoding %q (want raw)", s)
}

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
	// Encoding is the page format; Raw, the zero value, is the only one.
	Encoding Encoding
	// PageRows is the number of rows per page (default 256). The last page
	// may be partial.
	PageRows int
	// CacheBytes is each attached device's BlockCache budget in bytes of
	// page payload (default 256 MiB).
	CacheBytes int64
	// Policy selects the BlockCache replacement/admission policy
	// (default PolicyLRU). PolicyAdmit changes only which pages stay
	// resident — gathered values are identical under either policy.
	Policy blockcache.Policy
}

// normalize fills the defaults of zero fields and refuses negative ones and
// any page format but Raw.
func (o Options) normalize() (Options, error) {
	switch {
	case o.Encoding != Raw:
		return o, fmt.Errorf("featstore: Encoding %d is not Raw, the only page format", o.Encoding)
	case o.PageRows < 0:
		return o, fmt.Errorf("featstore: negative PageRows %d", o.PageRows)
	case o.CacheBytes < 0:
		return o, fmt.Errorf("featstore: negative CacheBytes %d", o.CacheBytes)
	}
	if o.PageRows == 0 {
		o.PageRows = 256
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	return o, nil
}

// Store is the paged feature table. It implements graph.FeatureSource:
// GatherRows copies the requested rows out of each device's pages, which a
// blockcache.Table keeps resident, faults in over the Unified-Memory path
// and recycles; what is left here is the demand production of rows from the
// source. The store itself is immutable after construction; all mutable
// state lives in the table's per-device batches and in gathers.
type Store struct {
	src  RowSource
	opts Options

	nRows int64
	dim   int
	tab   *blockcache.Table[float32]
	// gathers is one GatherRows scratch per attached device, indexed by the
	// batch's attach order.
	gathers []*gather
}

// gather is one device's GatherRows in flight: the call's arguments and its
// rows sorted by page, for the fill that tensor.Fanout may spread over
// several goroutines, a few pages at a time.
type gather struct {
	s     *Store
	pages []*blockcache.Page[float32]
	rows  []int64
	dst   []float32
	reads blockcache.ReadList
	// fill is the method value g.fillPages, made once so that a gather
	// allocates nothing.
	fill func(claimant, lo, hi int)
}

// fillChunk is how many pages a claimant of the fill takes at a time: a page
// costs from one copied row (~0.1 µs) to PageRows generated ones, so a chunk
// is several microseconds of work against the ~20 ns of claiming it.
const fillChunk = 16

// pageMetaBytes is the per-page metadata charged on top of the payload.
const pageMetaBytes = 8

// fillPages copies the gather's rows on pages [lo, hi) of the batch into
// dst, first producing from the source each row no earlier read has. The
// host pays for the rows that are read; the virtual clock charged the whole
// page when it was faulted in. Pages are the unit of ownership: every row of
// a page and its bitmap are this claimant's until the fan-out joins, and dst
// rows belong to the read they answer.
func (g *gather) fillPages(_, lo, hi int) {
	s, dim := g.s, g.s.dim
	for p := lo; p < hi; p++ {
		pg := g.pages[p]
		first, _ := s.tab.Span(pg.ID())
		for _, i := range g.reads.Of(p) {
			r := int(g.rows[i] - first)
			row := pg.Vals[r*dim : (r+1)*dim]
			if !pg.Has(r) {
				s.src.FillRow(first+int64(r), row)
				pg.Mark(r)
			}
			copy(g.dst[int(i)*dim:], row)
		}
	}
}

// New builds a store over src. Attach devices before gathering.
func New(src RowSource, opts Options) (*Store, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	n, dim := src.NumRows(), src.Dim()
	if n < 0 || dim <= 0 {
		return nil, fmt.Errorf("featstore: bad source shape %d x %d", n, dim)
	}
	tab := blockcache.NewTable[float32](blockcache.Shape{
		Name: "featstore", Unit: "rows", Items: n, PageItems: opts.PageRows,
		ItemVals: dim, ItemBytes: 4 * dim, MetaBytes: pageMetaBytes, Granule: 1,
		CacheBytes: opts.CacheBytes, Policy: opts.Policy,
	})
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

// GatherRows implements graph.FeatureSource. It resolves each requested
// row's page against dev's BlockCache; distinct missing pages are faulted
// in by one fault service on the copy stream, and the current stream waits
// on the transfer before one kernel reads the (now resident) rows at HBM
// random-access cost into dst. Returns the virtual seconds the current
// stream advanced.
//
// Everything the clock, the cache or a counter can see happens here, on the
// device's goroutine, in row order. Producing and copying the rows is pure
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

	payload := 4 * len(rows) * dim
	g.pages, g.rows, g.dst = b.Pages(), rows, dst
	g.reads.Group(len(g.pages))
	tensor.Fanout(blockcache.Claimants(payload), len(g.pages), fillChunk, g.fill)
	g.pages, g.rows, g.dst = nil, nil, nil
	b.End()
	dev.Kernel(sim.KernelCost{RandBytes: float64(payload), StreamBytes: float64(payload), Tag: tag})
	return dev.Now() - t0
}

// PrefetchPages faults pages ids into dev's BlockCache ahead of demand;
// see blockcache.Table.Prefetch. Returns the pages actually faulted.
func (s *Store) PrefetchPages(dev *sim.Device, ids []int32) int {
	return s.tab.Prefetch(dev, ids)
}

// Stats reports the store's shape and the sum of every attached device's
// BlockCache counters.
func (s *Store) Stats() blockcache.Stats { return s.tab.Stats() }
