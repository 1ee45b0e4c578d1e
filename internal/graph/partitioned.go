package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"wholegraph/internal/tensor"
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
	// Col holds the destination GlobalIDs, sharded by source rank: a
	// read-only view over the CSR's column array, each entry mapped through
	// Owner as it is read.
	Col *wholemem.Memory[uint64]
	// Feat holds node features row-major, sharded with the owning rank: a
	// read-only view over the dataset's feature slab.
	Feat *wholemem.Memory[float32]
	// EdgeW optionally holds one weight per stored edge, aligned with Col
	// (the paper's edge features e_{s,t} in its message-passing formula).
	EdgeW *wholemem.Memory[float32]

	// rowBase[r] and colBase[r] are the global feature-row and edge index
	// of rank r's first node (colBase[parts] the edge total).
	rowBase, colBase []int64
	// csr is the graph Col views. Under paged topology csr and Col are nil
	// and topo serves column pages on demand.
	csr  *CSR
	topo *topostore.Store

	// featSrc serves feature-row gathers: a memFeats adapter over Feat
	// when the layout was mapped with its slab, or a paged store installed
	// with SetFeatures. Nil when the graph has no features.
	featSrc FeatureSource

	// deg memoises DegreeOrder. Behind a pointer so that a copied
	// Partitioned shares it instead of copying a lock.
	deg *degreeMemo
}

type degreeMemo struct {
	once  sync.Once
	order []int64
}

// HashOwner returns the paper's node-to-rank assignment over parts ranks.
func HashOwner(parts int) func(int64) int {
	return func(v int64) int { return RankFor(v, parts) }
}

// Layout is the host half of a partition: which rank owns each node, every
// rank's row pointers and the edge weights, a pure function of the graph,
// the rank count and the owner. The column array and the feature rows are
// not copied: Map views them in the CSR and the slab, or serves the columns
// page by page from the source. A layout holds no communicator and charges
// nothing; Map places it on one. It is read-only once built, so every store
// that maps it shares its arrays and its DegreeOrder.
type Layout struct {
	src              TopoSource
	feat             []float32 // nil without features
	dim              int
	owner            []GlobalID
	orig             [][]int64
	rowBase, colBase []int64
	rowPtr           [][]int64
	edgeW            [][]float32 // nil until AttachEdgeWeights
	deg              *degreeMemo
}

// NewLayout places src's nodes and their features (row-major, feat[dim*i:]
// for node i; may be nil) on parts ranks: node v goes to rank ownerOf(v),
// locals in original-ID order, and every edge is stored with its source. The
// ranks' row pointers are built one rank per claim on the dense kernels'
// pool.
func NewLayout(src TopoSource, feat []float32, dim, parts int, ownerOf func(v int64) int) (*Layout, error) {
	n := src.NumNodes()
	if feat != nil && int64(len(feat)) != n*int64(dim) {
		return nil, fmt.Errorf("graph: feature length %d != N*dim = %d", len(feat), n*int64(dim))
	}
	owner, orig, err := place(n, parts, ownerOf)
	if err != nil {
		return nil, err
	}
	rowPtr := rowPtrs(orig, src.Degree)
	return &Layout{
		src: src, feat: feat, dim: dim, owner: owner, orig: orig, deg: new(degreeMemo),
		rowBase: rowBases(orig), colBase: colBases(rowPtr), rowPtr: rowPtr,
	}, nil
}

// perRank calls build(r) for every rank r of parts, one rank per claim on
// the dense kernels' pool; build must touch rank r's shards only.
func perRank(parts int, build func(r int)) {
	tensor.Fanout(tensor.Workers(), parts, 1, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			build(r)
		}
	})
}

// place assigns every node of [0, n) to rank ownerOf(v): owner[v] is its
// GlobalID, orig[r] rank r's nodes in original-ID order, allocated once.
func place(n int64, parts int, ownerOf func(v int64) int) (owner []GlobalID, orig [][]int64, err error) {
	owner, orig = make([]GlobalID, n), make([][]int64, parts)
	count := make([]int64, parts)
	for v := range owner {
		r := ownerOf(int64(v))
		if r < 0 || r >= parts {
			return nil, nil, fmt.Errorf("graph: ownerOf(%d) = %d outside [0,%d)", v, r, parts)
		}
		owner[v] = MakeGlobalID(r, count[r])
		count[r]++
	}
	for r := range orig {
		orig[r] = make([]int64, 0, count[r])
	}
	for v, gid := range owner {
		orig[gid.Rank()] = append(orig[gid.Rank()], int64(v))
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
	perRank(len(orig), func(r int) {
		rp := make([]int64, len(orig[r])+1)
		for li, v := range orig[r] {
			rp[li+1] = rp[li] + degree(v)
		}
		out[r] = rp
	})
	return out
}

// colBases returns each rank's first global edge index, and the total.
func colBases(rowPtr [][]int64) []int64 {
	base := make([]int64, len(rowPtr)+1)
	for r, rp := range rowPtr {
		base[r+1] = base[r] + rp[len(rp)-1]
	}
	return base
}

// AttachEdgeWeights adds the per-edge weight shards, aligned with the
// column shards, holding w(src, dst) over original node IDs; w is called
// from several goroutines at once. Call it before the layout is shared.
func (l *Layout) AttachEdgeWeights(w func(u, v int64) float32) {
	out := make([][]float32, len(l.orig))
	perRank(len(l.orig), func(r int) {
		rp := l.rowPtr[r]
		ws := make([]float32, rp[len(rp)-1])
		var nbrs []int64
		for li, u := range l.orig[r] {
			lo, hi := rp[li], rp[li+1]
			nbrs = slices.Grow(nbrs[:0], int(hi-lo))[:hi-lo]
			l.src.FillNeighbors(u, 0, hi-lo, nbrs)
			for k, v := range nbrs {
				ws[lo+int64(k)] = w(u, v)
			}
		}
		out[r] = ws
	})
	l.edgeW = out
}

// Paging names the tables a store does not keep resident when it maps a
// layout; the zero value keeps every table resident.
type Paging struct {
	// Topo serves the columns page by page from a topostore built with
	// TopoOpts instead of viewing the CSR's: every neighbour is then read
	// through the store's accessor, whatever the layout's source. Only the
	// row pointers stay resident (8 bytes a node: 0.9 GB for papers100M,
	// against ~26 GB of columns).
	Topo     bool
	TopoOpts topostore.Options
	// Features maps no feature slab: the store installs a source of its own
	// with SetFeatures.
	Features bool
}

// Map places the layout on comm, which must have as many ranks as the
// layout. Each table it keeps is charged as AllocSharded charges it, in the
// order row pointers, columns, features, edge weights; a paged topology store
// is built and attached to comm's devices last. It shares the layout's
// arrays, and its columns and features are views over the CSR and the slab.
// The Partitioned and its Memory values are new, so per-store state (a
// table's Kind, a SetFeatures source, a topostore's caches) stays per store.
func (l *Layout) Map(comm *wholemem.Comm, pg Paging) (*Partitioned, error) {
	csr, _ := l.src.(*CSR)
	switch {
	case csr == nil && !pg.Topo:
		return nil, fmt.Errorf("graph: the layout's source has no column array to view; it needs paged topology")
	case l.edgeW != nil && pg.Topo:
		return nil, fmt.Errorf("graph: edge weights require a resident column array, not paged topology")
	}
	p := &Partitioned{
		Comm: comm, N: l.src.NumNodes(), Dim: l.dim, Owner: l.owner, Orig: l.orig,
		rowBase: l.rowBase, colBase: l.colBase, deg: l.deg,
		RowPtr: wholemem.Map(comm, l.rowPtr),
	}
	if !pg.Topo {
		p.csr = csr
		p.Col = colView(comm, csr, l.owner, l.orig, l.rowPtr)
	}
	if l.feat != nil && !pg.Features {
		p.Feat = featView(comm, l.feat, l.dim, l.orig)
		p.featSrc = MemFeatures(p.Feat, p.N, l.dim)
	}
	if l.edgeW != nil {
		p.EdgeW = wholemem.Map(comm, l.edgeW)
	}
	if pg.Topo {
		ts, err := topostore.New(l.colBase[len(l.orig)], l.pagedFill(), pg.TopoOpts)
		if err != nil {
			return nil, err
		}
		ts.Attach(comm.Devs...)
		p.topo = ts
	}
	return p, nil
}

// colView views csr's column array as the column shards: rank r's shard is
// the neighbour lists of orig[r] in order, each entry mapped through owner
// as it is read.
func colView(comm *wholemem.Comm, csr *CSR, owner []GlobalID, orig, rowPtr [][]int64) *wholemem.Memory[uint64] {
	edges := make([]int64, len(rowPtr))
	for r, rp := range rowPtr {
		edges[r] = rp[len(rp)-1]
	}
	return wholemem.View(comm, edges, 1, func(r int, e, _ int64, dst []uint64) int {
		rp := rowPtr[r]
		li := sort.Search(len(rp)-1, func(i int) bool { return rp[i+1] > e })
		nbrs := csr.Neighbors(orig[r][li])[e-rp[li]:]
		n := min(len(dst), len(nbrs))
		for i, v := range nbrs[:n] {
			dst[i] = uint64(owner[v])
		}
		return n
	})
}

// featView views the slab feat as the feature shards: rank r's shard is the
// rows of orig[r] in order.
func featView(comm *wholemem.Comm, feat []float32, dim int, orig [][]int64) *wholemem.Memory[float32] {
	w := int64(dim)
	rows := make([]int64, len(orig))
	for r, o := range orig {
		rows[r] = int64(len(o))
	}
	return wholemem.View(comm, rows, w, func(r int, li, k int64, dst []float32) int {
		v := orig[r][li]
		return copy(dst, feat[v*w+k:(v+1)*w])
	})
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
// e0+k) and the neighbour list itself: the CSR's row of original IDs, which
// Owner maps. Under paged topology nbrs is nil: entries come from the
// topostore accessor. An uncharged host read; kernels account their rowptr
// and column traffic through their KernelCost.
func (p *Partitioned) Adj(gid GlobalID) (nbrs []int64, e0, deg int64) {
	rank, li := gid.Rank(), gid.Local()
	rp := p.RowPtr.Shard(rank)
	lo, hi := rp[li], rp[li+1]
	if p.csr != nil {
		nbrs = p.csr.Neighbors(p.Orig[rank][li])
	}
	return nbrs, p.colBase[rank] + lo, hi - lo
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
		out[r] = p.RowPtr.ShardLen(r) * 8
		if p.topo == nil {
			out[r] += p.Col.ShardLen(r) * 8
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
		out[r] = p.Feat.ShardLen(r) * 4
	}
	return out
}
