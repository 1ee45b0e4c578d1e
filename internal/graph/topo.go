package graph

import (
	"fmt"
	"sort"

	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// TopoSource produces adjacency on demand over original node IDs; the
// paged partition never materializes the full edge list. Implementations:
// a materialized CSR (CSRTopo) and the dataset generator's hash-defined
// adjacency (dataset.EdgeGen, which satisfies this interface
// structurally).
type TopoSource interface {
	NumNodes() int64
	// Degree returns node v's stored out-degree.
	Degree(v int64) int64
	// FillNeighbors writes neighbor slots [k0, k1) of node v into dst.
	// Implementations must be deterministic and safe for concurrent calls
	// with distinct dst buffers.
	FillNeighbors(v, k0, k1 int64, dst []int64)
}

// CSRTopo adapts a materialized CSR to TopoSource, letting in-RAM
// datasets train through the paged topology path (the bit-identity
// test surface).
type CSRTopo struct{ G *CSR }

// NumNodes implements TopoSource.
func (t CSRTopo) NumNodes() int64 { return t.G.N }

// Degree implements TopoSource.
func (t CSRTopo) Degree(v int64) int64 { return t.G.Degree(v) }

// FillNeighbors implements TopoSource.
func (t CSRTopo) FillNeighbors(v, k0, k1 int64, dst []int64) {
	lo := t.G.RowPtr[v]
	copy(dst, t.G.Col[lo+k0:lo+k1])
}

// PartitionPaged distributes src's nodes (and optional features) like
// Partition, but stores no column array: RowPtr stays resident in
// distributed shared memory (it is ~N*8 bytes — 0.9 GB for papers100M —
// versus ~26 GB of column), while destination GlobalIDs are served
// page-by-page from a topostore.Store backed by src. Neighbor access
// goes through the store's page-aware accessor and is bit-identical to
// the in-memory CSR; only virtual time and cache hit rates differ.
func PartitionPaged(src TopoSource, feat []float32, dim int, comm *wholemem.Comm, opts topostore.Options) (*Partitioned, error) {
	n := src.NumNodes()
	if feat != nil && int64(len(feat)) != n*int64(dim) {
		return nil, fmt.Errorf("graph: feature length %d != N*dim = %d", len(feat), n*int64(dim))
	}
	parts := comm.Size()
	owner, orig, err := place(n, parts, HashOwner(parts))
	if err != nil {
		return nil, err
	}
	p := &Partitioned{
		Comm: comm, N: n, Dim: dim, Owner: owner, Orig: orig, deg: new(degreeMemo),
		rowBase: rowBases(orig), colBase: make([]int64, parts+1),
	}
	rowPtr := rowPtrs(orig, src.Degree)
	for r, rp := range rowPtr {
		p.colBase[r+1] = p.colBase[r] + rp[len(rp)-1]
	}
	p.RowPtr = wholemem.Map(comm, rowPtr)
	if feat != nil {
		p.Feat = wholemem.Map(comm, featShards(orig, feat, dim))
		p.featSrc = MemFeatures(p.Feat, n, dim)
	}

	ts, err := topostore.New(p.colBase[parts], p.pagedFill(src), opts)
	if err != nil {
		return nil, err
	}
	ts.Attach(comm.Devs...)
	p.topo = ts
	return p, nil
}

// pagedFill returns the topostore fill function: it maps a global edge
// index range back to (rank, local row, slot) via the shard bases and
// resident RowPtr, reads original-ID neighbors from src, and translates
// them to GlobalIDs — exactly what PartitionBy writes into Col.
func (p *Partitioned) pagedFill(src TopoSource) topostore.Fill {
	parts := p.Comm.Size()
	return func(e0, e1 int64, dst []uint64, scratch []int64) {
		e := e0
		for e < e1 {
			// First rank whose shard extends past e (skips empty shards).
			r := sort.Search(parts, func(r int) bool { return p.colBase[r+1] > e })
			rp := p.RowPtr.Shard(r)
			le := e - p.colBase[r]
			// Row holding local edge offset le.
			li := sort.Search(len(rp)-1, func(i int) bool { return rp[i+1] > le })
			for e < e1 && li < len(rp)-1 {
				rowEnd := p.colBase[r] + rp[li+1]
				if stop := min64(e1, rowEnd); stop > e {
					v := p.Orig[r][li]
					k0 := e - p.colBase[r] - rp[li]
					cnt := stop - e
					b := scratch[:cnt]
					src.FillNeighbors(v, k0, k0+cnt, b)
					for i, d := range b {
						dst[e-e0+int64(i)] = uint64(p.Owner[d])
					}
					e = stop
				}
				if e >= e1 {
					return
				}
				li++
			}
		}
	}
}

// PagedTopo returns the paged column store, or nil when the graph holds
// a materialized Col array.
func (p *Partitioned) PagedTopo() *topostore.Store { return p.topo }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
