package graph

import (
	"sort"

	"wholegraph/internal/topostore"
)

// TopoSource produces adjacency over original node IDs; a layout is built
// over one. Implementations: a materialized *CSR and the dataset generator's
// hash-defined adjacency (dataset.EdgeGen), which a paged topology store
// reads page by page without ever materializing the edge list.
type TopoSource interface {
	NumNodes() int64
	// Degree returns node v's stored out-degree. It is called from
	// several goroutines at once.
	Degree(v int64) int64
	// FillNeighbors writes neighbor slots [k0, k1) of node v into dst.
	// Implementations must be deterministic and safe for concurrent calls
	// with distinct dst buffers.
	FillNeighbors(v, k0, k1 int64, dst []int64)
}

// pagedFill returns the topostore fill function: it maps a global edge
// index range back to (rank, local row, slot) through the shard bases and
// the row pointers, reads original-ID neighbours from the source and writes
// them as GlobalIDs — the entries the column view reads.
func (l *Layout) pagedFill() topostore.Fill {
	parts := len(l.orig)
	return func(e0, e1 int64, dst []uint64, scratch []int64) {
		for e := e0; e < e1; {
			// First rank whose shard extends past e (skips empty shards),
			// then its rows in turn from the one holding e.
			r := sort.Search(parts, func(r int) bool { return l.colBase[r+1] > e })
			rp, base := l.rowPtr[r], l.colBase[r]
			li := sort.Search(len(rp)-1, func(i int) bool { return rp[i+1] > e-base })
			for ; e < e1 && li < len(rp)-1; li++ {
				if stop := min(e1, base+rp[li+1]); stop > e {
					k0 := e - base - rp[li]
					b := scratch[:stop-e]
					l.src.FillNeighbors(l.orig[r][li], k0, k0+stop-e, b)
					for i, d := range b {
						dst[e-e0+int64(i)] = uint64(l.owner[d])
					}
					e = stop
				}
			}
		}
	}
}

// PagedTopo returns the paged column store, or nil when the graph holds
// a materialized Col array.
func (p *Partitioned) PagedTopo() *topostore.Store { return p.topo }
