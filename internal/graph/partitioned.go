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
	return PartitionBy(csr, feat, dim, comm, HashOwner(comm.Size()))
}

// PartitionBy is Partition with an explicit node-to-rank assignment,
// enabling the partition-strategy ablation (hash vs range vs
// community-aware placement). ownerOf must return a rank in [0, comm.Size).
func PartitionBy(csr *CSR, feat []float32, dim int, comm *wholemem.Comm, ownerOf func(v int64) int) (*Partitioned, error) {
	l, err := NewLayout(csr, feat, dim, comm.Size(), ownerOf)
	if err != nil {
		return nil, err
	}
	return l.Map(comm), nil
}

// HashOwner returns the paper's node-to-rank assignment over parts ranks.
func HashOwner(parts int) func(int64) int {
	return func(v int64) int { return RankFor(v, parts) }
}

// Layout is the host half of a partition: which rank owns each node and
// every rank's shard of the row pointers, the column array, the feature rows
// and the edge weights, a pure function of the graph, the rank count and the
// owner. It holds no communicator and charges nothing; Map places it on one.
// A layout is read-only once built, so every store that maps it shares its
// arrays and its DegreeOrder.
type Layout struct {
	n       int64
	dim     int
	owner   []GlobalID
	orig    [][]int64
	rowBase []int64
	rowPtr  [][]int64
	col     [][]uint64
	feat    [][]float32 // nil without features
	edgeW   [][]float32 // nil until AttachEdgeWeights
	deg     *degreeMemo
}

// NewLayout places csr and its node features (row-major, feat[dim*i:] for
// node i; may be nil) on parts ranks: node v goes to rank ownerOf(v), locals
// in original-ID order, and every edge is stored with its source.
func NewLayout(csr *CSR, feat []float32, dim, parts int, ownerOf func(v int64) int) (*Layout, error) {
	if feat != nil && int64(len(feat)) != csr.N*int64(dim) {
		return nil, fmt.Errorf("graph: feature length %d != N*dim = %d", len(feat), csr.N*int64(dim))
	}
	owner, orig, err := place(csr.N, parts, ownerOf)
	if err != nil {
		return nil, err
	}
	l := &Layout{
		n: csr.N, dim: dim, owner: owner, orig: orig, deg: new(degreeMemo),
		rowBase: rowBases(orig), rowPtr: rowPtrs(orig, csr.Degree), feat: featShards(orig, feat, dim),
		col: make([][]uint64, parts),
	}
	for r, rp := range l.rowPtr {
		col := make([]uint64, rp[len(rp)-1])
		for li, v := range orig[r] {
			for k, d := range csr.Neighbors(v) {
				col[rp[li]+int64(k)] = uint64(owner[d])
			}
		}
		l.col[r] = col
	}
	return l, nil
}

// place assigns every node of [0, n) to rank ownerOf(v): owner[v] is its
// GlobalID, orig[r] rank r's nodes in original-ID order.
func place(n int64, parts int, ownerOf func(v int64) int) (owner []GlobalID, orig [][]int64, err error) {
	owner, orig = make([]GlobalID, n), make([][]int64, parts)
	for v := int64(0); v < n; v++ {
		r := ownerOf(v)
		if r < 0 || r >= parts {
			return nil, nil, fmt.Errorf("graph: ownerOf(%d) = %d outside [0,%d)", v, r, parts)
		}
		owner[v] = MakeGlobalID(r, int64(len(orig[r])))
		orig[r] = append(orig[r], v)
	}
	return owner, orig, nil
}

// rowBases returns each rank's first global feature row: the ranks' rows
// follow each other in rank order.
func rowBases(orig [][]int64) []int64 {
	base := make([]int64, len(orig))
	for r := 1; r < len(orig); r++ {
		base[r] = base[r-1] + int64(len(orig[r-1]))
	}
	return base
}

// rowPtrs returns every rank's row pointers: localN+1 offsets into its edge
// shard.
func rowPtrs(orig [][]int64, degree func(v int64) int64) [][]int64 {
	out := make([][]int64, len(orig))
	for r, nodes := range orig {
		rp := make([]int64, len(nodes)+1)
		for li, v := range nodes {
			rp[li+1] = rp[li] + degree(v)
		}
		out[r] = rp
	}
	return out
}

// featShards copies feat's rows into per-rank shards in orig order; nil
// without features.
func featShards(orig [][]int64, feat []float32, dim int) [][]float32 {
	if feat == nil {
		return nil
	}
	out := make([][]float32, len(orig))
	for r, nodes := range orig {
		fs := make([]float32, int64(len(nodes))*int64(dim))
		for li, v := range nodes {
			copy(fs[int64(li)*int64(dim):], feat[v*int64(dim):(v+1)*int64(dim)])
		}
		out[r] = fs
	}
	return out
}

// AttachEdgeWeights adds the per-edge weight shards, aligned with the
// column shards, holding w(src, dst) over original node IDs. Call it before
// the layout is shared.
func (l *Layout) AttachEdgeWeights(w func(u, v int64) float32) {
	l.edgeW = edgeWeights(l.orig, func(r int) []int64 { return l.rowPtr[r] }, func(r int) []uint64 { return l.col[r] }, w)
}

// Map places the layout on comm, which must have as many ranks as the
// layout: each table is charged as AllocSharded charges it, in the order
// row pointers, columns, features, edge weights, and shares the layout's
// shards. The Partitioned and its Memory values are new, so per-store state
// (a table's Kind, a SetFeatures source) stays per store.
func (l *Layout) Map(comm *wholemem.Comm) *Partitioned {
	p := &Partitioned{
		Comm: comm, N: l.n, Dim: l.dim, Owner: l.owner, Orig: l.orig, rowBase: l.rowBase, deg: l.deg,
		RowPtr: wholemem.Map(comm, l.rowPtr),
		Col:    wholemem.Map(comm, l.col),
	}
	if l.feat != nil {
		p.Feat = wholemem.Map(comm, l.feat)
		p.featSrc = MemFeatures(p.Feat, l.n, l.dim)
	}
	if l.edgeW != nil {
		p.EdgeW = wholemem.Map(comm, l.edgeW)
	}
	return p
}

// AttachEdgeWeights allocates the per-edge weight table (sharded like the
// edge array) and fills it with w(src, dst) over original node IDs. Edge
// weights live in distributed shared memory like everything else and are
// gathered per sampled edge during batch construction.
func (p *Partitioned) AttachEdgeWeights(w func(u, v int64) float32) {
	if p.topo != nil {
		panic("graph: AttachEdgeWeights requires a materialized column array (paged topology does not store edge weights)")
	}
	p.EdgeW = wholemem.Map(p.Comm, edgeWeights(p.Orig, p.RowPtr.Shard, p.Col.Shard, w))
}

// edgeWeights returns w(src, dst) for every stored edge, sharded like the
// column array.
func edgeWeights(orig [][]int64, rowPtr func(int) []int64, col func(int) []uint64, w func(u, v int64) float32) [][]float32 {
	out := make([][]float32, len(orig))
	for r := range out {
		rp, cs := rowPtr(r), col(r)
		ws := make([]float32, len(cs))
		for li, u := range orig[r] {
			for e := rp[li]; e < rp[li+1]; e++ {
				d := GlobalID(cs[e])
				ws[e] = w(u, orig[d.Rank()][d.Local()])
			}
		}
		out[r] = ws
	}
	return out
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
