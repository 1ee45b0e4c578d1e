package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// Partitioned is the multi-GPU graph store of WholeGraph: nodes are
// hash-partitioned to ranks, every edge is stored with its source node, and
// node features are stored on the same GPU as the node. All arrays live in
// multi-GPU distributed shared memory, so any rank can read any of them
// from inside a kernel.
type Partitioned struct {
	Comm *wholemem.Comm
	// N is the number of nodes, Dim the feature dimension.
	N   int64
	Dim int

	// Owner maps an original node ID to its GlobalID.
	Owner []GlobalID
	// Orig maps (rank, local) back to the original node ID.
	Orig [][]int64

	// RowPtr holds, per rank, localN+1 offsets into the rank's edge shard.
	RowPtr *wholemem.Memory[int64]
	// Col holds the destination GlobalIDs, sharded by source rank.
	Col *wholemem.Memory[uint64]
	// Feat holds node features row-major, sharded with the owning rank.
	Feat *wholemem.Memory[float32]
	// EdgeW optionally holds one weight per stored edge, aligned with Col
	// (the paper's edge features e_{s,t} in its message-passing formula).
	EdgeW *wholemem.Memory[float32]

	// rowBase[r] is the global feature-row index of rank r's first node.
	rowBase []int64

	// Paged-topology mode (PartitionPaged): Col is nil, colBase[r] is the
	// global edge index of rank r's first column entry (colBase[parts] the
	// total), and topo serves column pages on demand.
	colBase []int64
	topo    *topostore.Store

	// featSrc serves feature-row gathers: a memFeats adapter over Feat
	// when the graph was partitioned with a slab, or a paged store
	// installed with SetFeatures. Nil when the graph has no features.
	featSrc FeatureSource

	// deg memoises DegreeOrder. Behind a pointer so that a copied
	// Partitioned shares it instead of copying a lock.
	deg *degreeMemo
}

type degreeMemo struct {
	once  sync.Once
	order []int64
}

// Partition distributes csr and its node features (row-major, feat[dim*i:]
// for node i; may be nil) across the communicator using the paper's hash
// partitioning. It performs the real data placement and charges each rank's
// allocation/IPC setup cost.
func Partition(csr *CSR, feat []float32, dim int, comm *wholemem.Comm) (*Partitioned, error) {
	parts := comm.Size()
	return PartitionBy(csr, feat, dim, comm, func(v int64) int { return RankFor(v, parts) })
}

// PartitionBy is Partition with an explicit node-to-rank assignment,
// enabling the partition-strategy ablation (hash vs range vs
// community-aware placement). ownerOf must return a rank in [0, comm.Size).
func PartitionBy(csr *CSR, feat []float32, dim int, comm *wholemem.Comm, ownerOf func(v int64) int) (*Partitioned, error) {
	if feat != nil && int64(len(feat)) != csr.N*int64(dim) {
		return nil, fmt.Errorf("graph: feature length %d != N*dim = %d", len(feat), csr.N*int64(dim))
	}
	parts := comm.Size()
	p := &Partitioned{Comm: comm, N: csr.N, Dim: dim, deg: new(degreeMemo)}

	// Assign GlobalIDs, locals in original-ID order.
	p.Owner = make([]GlobalID, csr.N)
	p.Orig = make([][]int64, parts)
	for v := int64(0); v < csr.N; v++ {
		r := ownerOf(v)
		if r < 0 || r >= parts {
			return nil, fmt.Errorf("graph: ownerOf(%d) = %d outside [0,%d)", v, r, parts)
		}
		p.Owner[v] = MakeGlobalID(r, int64(len(p.Orig[r])))
		p.Orig[r] = append(p.Orig[r], v)
	}

	// Shard sizes.
	rowSizes := make([]int64, parts)
	edgeSizes := make([]int64, parts)
	featSizes := make([]int64, parts)
	p.rowBase = make([]int64, parts)
	var rows int64
	for r := 0; r < parts; r++ {
		ln := int64(len(p.Orig[r]))
		rowSizes[r] = ln + 1
		featSizes[r] = ln * int64(dim)
		p.rowBase[r] = rows
		rows += ln
		for _, v := range p.Orig[r] {
			edgeSizes[r] += csr.Degree(v)
		}
	}

	p.RowPtr = wholemem.AllocSharded[int64](comm, rowSizes)
	p.Col = wholemem.AllocSharded[uint64](comm, edgeSizes)
	if feat != nil {
		p.Feat = wholemem.AllocSharded[float32](comm, featSizes)
		p.featSrc = MemFeatures(p.Feat, rows, dim)
	}

	// Fill each rank's shards in place (host-side construction).
	for r := 0; r < parts; r++ {
		rp := p.RowPtr.Shard(r)
		col := p.Col.Shard(r)
		var fs []float32
		if feat != nil {
			fs = p.Feat.Shard(r)
		}
		var off int64
		for li, v := range p.Orig[r] {
			rp[li] = off
			for _, d := range csr.Neighbors(v) {
				col[off] = uint64(p.Owner[d])
				off++
			}
			if feat != nil {
				copy(fs[int64(li)*int64(dim):], feat[v*int64(dim):(v+1)*int64(dim)])
			}
		}
		rp[len(p.Orig[r])] = off
	}
	return p, nil
}

// AttachEdgeWeights allocates the per-edge weight table (sharded like the
// edge array) and fills it with w(src, dst) over original node IDs. Edge
// weights live in distributed shared memory like everything else and are
// gathered per sampled edge during batch construction.
func (p *Partitioned) AttachEdgeWeights(w func(u, v int64) float32) {
	if p.topo != nil {
		panic("graph: AttachEdgeWeights requires a materialized column array (paged topology does not store edge weights)")
	}
	sizes := make([]int64, p.Comm.Size())
	for r := range sizes {
		sizes[r] = int64(len(p.Col.Shard(r)))
	}
	p.EdgeW = wholemem.AllocSharded[float32](p.Comm, sizes)
	for r := 0; r < p.Comm.Size(); r++ {
		rp := p.RowPtr.Shard(r)
		col := p.Col.Shard(r)
		ws := p.EdgeW.Shard(r)
		for li, u := range p.Orig[r] {
			for e := rp[li]; e < rp[li+1]; e++ {
				d := GlobalID(col[e])
				v := p.Orig[d.Rank()][d.Local()]
				ws[e] = w(u, v)
			}
		}
	}
}

// LocalCount returns the number of nodes owned by rank r.
func (p *Partitioned) LocalCount(r int) int64 { return int64(len(p.Orig[r])) }

// FeatRow returns the global feature-row index of gid, usable with
// Feat.GatherRows.
func (p *Partitioned) FeatRow(gid GlobalID) int64 {
	return p.rowBase[gid.Rank()] + gid.Local()
}

// Adj resolves gid's adjacency in one step: the owning rank and its row
// pointers are looked up once, giving the degree, the global element index e0
// of the first edge (into Col and EdgeW, or the paged column store; edge k is
// e0+k) and the neighbour list itself as a sub-slice of the rank's Col shard.
// Under paged topology there is no column array and nbrs is nil: entries come
// from the topostore accessor. An uncharged host read; kernels account their
// rowptr and column traffic through their KernelCost.
func (p *Partitioned) Adj(gid GlobalID) (nbrs []uint64, e0, deg int64) {
	rank, li := gid.Rank(), gid.Local()
	rp := p.RowPtr.Shard(rank)
	lo, hi := rp[li], rp[li+1]
	if p.topo != nil {
		return nil, p.colBase[rank] + lo, hi - lo
	}
	return p.Col.Shard(rank)[lo:hi], p.Col.ShardStart(rank) + lo, hi - lo
}

// DegreeOrder returns every node ID ordered by out-degree descending, ties
// by ascending ID: the popularity ranking under neighbor sampling, which the
// hot-row caches fill in and the serving router and request generator rank
// by. It is computed once per graph — one sort of packed (^degree, id) keys —
// and shared; callers must not modify it. Node IDs and degrees are packed
// into 32 bits each, which every graph that fits in memory here satisfies
// (papers100M at full scale has 1.1e8 nodes).
func (p *Partitioned) DegreeOrder() []int64 {
	p.deg.once.Do(func() {
		if p.N > math.MaxUint32 {
			panic("graph: DegreeOrder packs node IDs into 32 bits")
		}
		keys := make([]uint64, p.N)
		for v, gid := range p.Owner {
			_, _, deg := p.Adj(gid)
			keys[v] = uint64(^uint32(min(deg, math.MaxUint32)))<<32 | uint64(v)
		}
		slices.Sort(keys)
		p.deg.order = make([]int64, p.N)
		for i, k := range keys {
			p.deg.order[i] = int64(uint32(k))
		}
	})
	return p.deg.order
}

// StructureBytesPerRank reports the adjacency bytes held by each rank
// (Table IV accounting). In paged-topology mode the column array is
// virtual — only the resident RowPtr shard counts; column pages live in
// the byte-budgeted BlockCaches, reported by the store's Stats.
func (p *Partitioned) StructureBytesPerRank() []int64 {
	out := make([]int64, p.Comm.Size())
	for r := range out {
		out[r] = int64(len(p.RowPtr.Shard(r))) * 8
		if p.topo == nil {
			out[r] += int64(len(p.Col.Shard(r))) * 8
		}
	}
	return out
}

// RangeOwner returns a contiguous-block node-to-rank assignment (rank r
// owns IDs [r*N/parts, (r+1)*N/parts)), the simplest alternative to
// hashing.
func RangeOwner(n int64, parts int) func(int64) int {
	chunk := (n + int64(parts) - 1) / int64(parts)
	return func(v int64) int { return int(v / chunk) }
}

// FeatureBytesPerRank reports the feature bytes held by each rank.
func (p *Partitioned) FeatureBytesPerRank() []int64 {
	out := make([]int64, p.Comm.Size())
	if p.Feat == nil {
		return out
	}
	for r := range out {
		out[r] = int64(len(p.Feat.Shard(r))) * 4
	}
	return out
}
