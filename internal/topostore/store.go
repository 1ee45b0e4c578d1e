// Package topostore is the out-of-core topology analogue of
// internal/featstore: the CSR column array (destination GlobalIDs,
// sharded by source rank and concatenated into one global edge index
// space) is served from fixed-edge-range pages produced on demand by a
// fill function, behind the same blockcache.Table: a page miss pays the
// Unified-Memory fault service on the device's copy stream; a hit reads
// local HBM. Sampling reads neighbors through an Access, which batches one
// fault service per sampling kernel and joins any in-flight prefetch
// transfers, so paged sampling is bit-identical to the in-memory CSR — only
// virtual time and hit rates change.
package topostore

import (
	"fmt"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Fill writes the column values (destination GlobalIDs as uint64) for
// global edge indices [e0, e1) into dst. scratch is e1-e0 int64s of the
// caller's, for the fill's own use. Implementations must be deterministic
// — each value a function of its edge index alone — and safe for
// concurrent calls with distinct dst and scratch buffers
// (graph.Layout.Map builds one over the layout's graph.TopoSource).
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

// colPage is one page of a blockcache.Table: a column range whose entries
// are filled run by run as they are first read (see fillRun). Values are a
// pure function of the edge index, so reads decode the same in any order.
type colPage struct {
	id  int32
	col []uint64
	// have marks the filled runs (bit g = entries [g*fillRun, (g+1)*fillRun)).
	have  []uint64
	ready sim.Event
}

// pageMetaBytes is the per-page metadata charged on top of the payload.
const pageMetaBytes = 16

// CacheBytes implements blockcache.Block.
func (p *colPage) CacheBytes() int64 { return int64(len(p.col))*8 + pageMetaBytes }

// ReadyEvent implements blockcache.Page.
func (p *colPage) ReadyEvent() *sim.Event { return &p.ready }

// Reset implements blockcache.Page: n entries, none filled.
func (p *colPage) Reset(id int32, n int) {
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

// Store is the paged column table: what a column page holds, over a
// blockcache.Table that keeps pages resident per device. Immutable after
// construction; all mutable state lives in the per-device accesses.
type Store struct {
	fill     Fill
	opts     Options
	numEdges int64
	tab      *blockcache.Table[*colPage]
	// accs holds one Access per attached device, in attach order.
	accs []*Access
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
	tab := blockcache.NewTable(blockcache.Shape{
		Name: "topostore", Items: numEdges, PageItems: opts.PageEdges,
		ItemBytes: 8, MetaBytes: pageMetaBytes,
		CacheBytes: opts.CacheBytes, Policy: opts.Policy,
	}, func() *colPage { return new(colPage) })
	return &Store{fill: fill, opts: opts, numEdges: numEdges, tab: tab}, nil
}

// Attach gives each device its own BlockCache. Call once per device
// before the first access.
func (s *Store) Attach(devs ...*sim.Device) {
	s.tab.Attach(devs...)
	for range devs {
		a := &Access{s: s, scratch: make([][fillRun]int64, 1)}
		a.fill = a.fillPages
		s.accs = append(s.accs, a)
	}
}

// NumEdges returns the stored column entry count.
func (s *Store) NumEdges() int64 { return s.numEdges }

// NumPages returns the page count (last page possibly partial).
func (s *Store) NumPages() int { return s.tab.NumPages() }

// TopoBytes returns the virtual column footprint — what a materialized
// wholemem Col array would occupy, and the UM working set the
// fault-latency model sees.
func (s *Store) TopoBytes() int64 { return s.numEdges * 8 }

// PageOf returns the page holding global edge index e.
func (s *Store) PageOf(e int64) int32 { return s.tab.PageOf(e) }

// at returns entry off of pg, first filling the run around it if no
// earlier read has. The host pays for the runs that are read; the virtual
// clock charged the whole page when it was faulted in.
func (s *Store) at(pg *colPage, off int64, scratch *[fillRun]int64) uint64 {
	g := off / fillRun
	if pg.have[g>>6]&(1<<(g&63)) == 0 {
		r0 := g * fillRun
		r1 := min(r0+fillRun, int64(len(pg.col)))
		lo := int64(pg.id) * int64(s.opts.PageEdges)
		s.fill(lo+r0, lo+r1, pg.col[r0:r1], scratch[:r1-r0])
		pg.have[g>>6] |= 1 << (g & 63)
	}
	return pg.col[off]
}

// Begin starts a page-aware access batch on dev: At decodes single
// column entries and Read a list of them, tracking which pages were touched
// and which missed; Flush charges one copy-stream fault service for all
// misses, joins any in-flight prefetch transfers, and ends the batch. One
// Access per device — Begin while a batch holds unflushed misses panics.
func (s *Store) Begin(dev *sim.Device) *Access {
	b := s.tab.Begin(dev)
	acc := s.accs[b.Index]
	acc.b = b
	return acc
}

// Access is an open access batch; see Store.Begin.
type Access struct {
	s *Store
	b *blockcache.Batch[*colPage]
	// scratch is one fill workspace per claimant of a Read; At uses the
	// first.
	scratch [][fillRun]int64

	// A Read in flight: its arguments, its edges sorted by page, and the
	// method value a.fillPages, made once so that a Read allocates nothing.
	edges []int64
	dst   []uint64
	reads blockcache.ReadList
	fill  func(claimant, lo, hi int)
}

// readChunk is how many pages a claimant of a Read takes at a time: a page
// of a sampling kernel holds around ten reads, each of which may fill a run
// (several microseconds from a generator), so pages are claimed in fours.
const readChunk = 4

// At returns the column value at global edge index e, faulting the
// holding page host-side if missing (the virtual-time charge is deferred
// to Flush). The value is identical whether the page was resident,
// missing, or admission-rejected.
func (a *Access) At(e int64) uint64 {
	s := a.s
	if e < 0 || e >= s.numEdges {
		panic(fmt.Sprintf("topostore: edge %d outside [0,%d)", e, s.numEdges))
	}
	id := int32(e / int64(s.opts.PageEdges))
	return s.at(a.b.Page(id), e-int64(id)*int64(s.opts.PageEdges), &a.scratch[0])
}

// Read is At over a list: dst[i] becomes the column value at global edge
// index edges[i]. Pages are resolved here, on the device's goroutine, in
// the order At would have — so lookups, evictions, faults and every counter
// are those of len(edges) At calls; the run fills behind them are pure host
// work and are handed out page by page to as many goroutines as
// blockcache.Claimants allows.
func (a *Access) Read(edges []int64, dst []uint64) {
	s := a.s
	if len(dst) < len(edges) {
		panic("topostore: dst too small")
	}
	pageEdges := int64(s.opts.PageEdges)
	a.reads.Reset(len(edges))
	for i, e := range edges {
		if e < 0 || e >= s.numEdges {
			panic(fmt.Sprintf("topostore: edge %d outside [0,%d)", e, s.numEdges))
		}
		a.reads.Slot[i] = int32(a.b.Slot(int32(e / pageEdges)))
	}
	a.edges, a.dst = edges, dst
	pages := len(a.b.Pages())
	a.reads.Group(pages)
	// A read fills at most one run.
	w := blockcache.Claimants(8 * fillRun * len(edges))
	for len(a.scratch) < w {
		a.scratch = append(a.scratch, [fillRun]int64{})
	}
	tensor.Fanout(w, pages, readChunk, a.fill)
	a.edges, a.dst = nil, nil
}

// fillPages serves the Read's edges on pages [lo, hi) of the batch. A page —
// its column entries and its bitmap of filled runs — belongs to the claimant
// that took it until the fan-out joins.
func (a *Access) fillPages(claimant, lo, hi int) {
	pages, pageEdges := a.b.Pages(), int64(a.s.opts.PageEdges)
	for p := lo; p < hi; p++ {
		pg := pages[p]
		first := int64(pg.id) * pageEdges
		for _, i := range a.reads.Of(p) {
			a.dst[i] = a.s.at(pg, a.edges[i]-first, &a.scratch[claimant])
		}
	}
}

// Flush charges the batch's page faults — one fault service covering every
// page missed since Begin — makes the current stream wait for the migration
// plus any in-flight prefetched page the batch touched, and ends the batch.
// Call before the kernel that consumes the decoded values. The tag is
// unused (the table's trace tags are fixed); the parameter stays because
// benchmark/ passes one. Returns the number of pages faulted.
func (a *Access) Flush(tag string) int {
	faulted := a.b.Flush()
	a.b.End()
	return faulted
}

// PrefetchPages faults pages ids into dev's BlockCache ahead of demand;
// see blockcache.Table.Prefetch. Returns the pages actually faulted.
func (s *Store) PrefetchPages(dev *sim.Device, ids []int32) int {
	return s.tab.Prefetch(dev, ids)
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

// Add folds another machine node's store into st. Every node pages the same
// graph, so the first store's shape (page size, pages, column bytes, policy)
// stands for all of them; budgets, devices and counters sum.
func (st *Stats) Add(o Stats) {
	if st.Devices == 0 {
		st.PageEdges, st.Pages, st.TopoBytes, st.Policy = o.PageEdges, o.Pages, o.TopoBytes, o.Policy
	}
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
	return Stats{
		PageEdges: s.opts.PageEdges, Pages: s.NumPages(),
		TopoBytes: s.TopoBytes(), CacheBytes: s.opts.CacheBytes,
		Devices: s.tab.Devices(), Policy: s.opts.Policy.String(),
		CacheStats: s.tab.Stats(),
	}
}
