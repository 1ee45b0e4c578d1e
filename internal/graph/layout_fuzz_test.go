package graph

import (
	"math/rand"
	"slices"
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// copiedLayout is the partition built the plain way, edge by edge: per-rank
// copies of the row pointers, of the column array as GlobalIDs, of the
// feature rows and of the edge weights.
type copiedLayout struct {
	owner         []GlobalID
	orig, rowPtr  [][]int64
	col           [][]uint64
	feat, edgeW   [][]float32
	colStart      []int64
	structure     []int64
	featureTotals []int64
}

func copyLayout(csr *CSR, feat []float32, dim, parts int, ownerOf func(int64) int, weighted bool) *copiedLayout {
	c := &copiedLayout{
		owner: make([]GlobalID, csr.N), orig: make([][]int64, parts), rowPtr: make([][]int64, parts),
		col: make([][]uint64, parts), feat: make([][]float32, parts), edgeW: make([][]float32, parts),
		colStart: make([]int64, parts), structure: make([]int64, parts), featureTotals: make([]int64, parts),
	}
	for v := int64(0); v < csr.N; v++ {
		r := ownerOf(v)
		c.owner[v] = MakeGlobalID(r, int64(len(c.orig[r])))
		c.orig[r] = append(c.orig[r], v)
	}
	var edges int64
	for r, vs := range c.orig {
		c.rowPtr[r] = []int64{0}
		c.colStart[r] = edges
		for _, v := range vs {
			for _, d := range csr.Neighbors(v) {
				c.col[r] = append(c.col[r], uint64(c.owner[d]))
				if weighted {
					c.edgeW[r] = append(c.edgeW[r], HashEdgeWeight(v, d))
				}
			}
			c.rowPtr[r] = append(c.rowPtr[r], int64(len(c.col[r])))
			if feat != nil {
				c.feat[r] = append(c.feat[r], feat[v*int64(dim):(v+1)*int64(dim)]...)
			}
		}
		edges += int64(len(c.col[r]))
		c.structure[r] = int64(len(c.rowPtr[r])+len(c.col[r])) * 8
		c.featureTotals[r] = int64(len(c.feat[r])) * 4
	}
	return c
}

// fuzzCSR returns a graph of n nodes with mostly short rows, some empty,
// up to three hub rows, and duplicate entries drawn from a few popular
// destinations; rows are left unsorted.
func fuzzCSR(rng *rand.Rand, n int64, hubs int) *CSR {
	c := &CSR{N: n, RowPtr: make([]int64, n+1)}
	hot := []int64{rng.Int63n(n), rng.Int63n(n)}
	isHub := map[int64]bool{}
	for h := 0; h < hubs; h++ {
		isHub[rng.Int63n(n)] = true
	}
	for v := int64(0); v < n; v++ {
		deg := rng.Int63n(4)
		if isHub[v] {
			deg = n/4 + rng.Int63n(n+1)
		}
		for k := int64(0); k < deg; k++ {
			d := rng.Int63n(n)
			if rng.Intn(4) == 0 {
				d = hot[rng.Intn(len(hot))]
			}
			c.Col = append(c.Col, d)
		}
		c.RowPtr[v+1] = int64(len(c.Col))
	}
	return c
}

// FuzzLayout builds random graphs — empty rows, hub rows, duplicate
// entries — on one to eight ranks under a hash, a range or a random owner,
// with features and edge weights each optional, and holds the layout mapped
// resident to copiedLayout: for every node, Adj's degree, first edge index
// and neighbour GlobalIDs, the column entries read through Col, the feature
// rows GatherRows and ReadRow return and the edge weights; unaligned ranges
// and single elements read through the kernels; the Table IV byte counts;
// and every device's clock and counters after Map and those reads, against
// the copies mapped and read the same way. The same placement over a source
// that is no CSR, mapped with paged topology, must place every node and row
// pointer alike and read every column entry through the topostore accessor
// as the resident view does; a weighted layout must refuse paged topology.
func FuzzLayout(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(8), uint8(0), uint8(3), true, false)
	f.Add(int64(2), uint16(50), uint8(3), uint8(1), uint8(0), false, true)
	f.Add(int64(3), uint16(1), uint8(1), uint8(2), uint8(1), true, true)
	f.Add(int64(4), uint16(500), uint8(5), uint8(2), uint8(4), true, true)
	f.Add(int64(5), uint16(7), uint8(8), uint8(1), uint8(2), true, false)
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, ranks, owner, hubs uint8, withFeat, weighted bool) {
		rng := rand.New(rand.NewSource(seed))
		n, parts := 1+int64(nodes%1000), 1+int(ranks%8)
		csr := fuzzCSR(rng, n, int(hubs%4))
		ownerOf := HashOwner(parts)
		switch owner % 3 {
		case 1:
			ownerOf = RangeOwner(n, parts)
		case 2:
			own := make([]int, n)
			for v := range own {
				own[v] = rng.Intn(parts)
			}
			ownerOf = func(v int64) int { return own[v] }
		}
		var feat []float32
		dim := 1 + rng.Intn(5)
		if withFeat {
			feat = make([]float32, n*int64(dim))
			for i := range feat {
				feat[i] = rng.Float32()
			}
		}

		comm := func() *wholemem.Comm {
			c, err := wholemem.NewComm(sim.NewMachine(sim.DGXA100(1)).NodeDevs(0)[:parts])
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		l, err := NewLayout(csr, feat, dim, parts, ownerOf)
		if err != nil {
			t.Fatal(err)
		}
		if weighted {
			l.AttachEdgeWeights(HashEdgeWeight)
		}
		p, err := l.Map(comm(), Paging{})
		if err != nil {
			t.Fatal(err)
		}
		ref := copyLayout(csr, feat, dim, parts, ownerOf, weighted)
		refComm := comm()
		var refFeat *wholemem.Memory[float32]
		wholemem.Map(refComm, ref.rowPtr)
		refCol := wholemem.Map(refComm, ref.col)
		if feat != nil {
			refFeat = wholemem.Map(refComm, ref.feat)
		}
		if weighted {
			wholemem.Map(refComm, ref.edgeW)
		}

		if !slices.Equal(p.Owner, ref.owner) {
			t.Fatal("owners differ from the copied layout")
		}
		for v := int64(0); v < n; v++ {
			gid := p.Owner[v]
			r, li := gid.Rank(), gid.Local()
			nbrs, e0, deg := p.Adj(gid)
			lo, hi := ref.rowPtr[r][li], ref.rowPtr[r][li+1]
			if deg != hi-lo || e0 != ref.colStart[r]+lo || int64(len(nbrs)) != deg {
				t.Fatalf("node %d: Adj (e0 %d, deg %d, %d neighbours), want (%d, %d)", v, e0, deg, len(nbrs), ref.colStart[r]+lo, hi-lo)
			}
			for k, d := range nbrs {
				want := ref.col[r][lo+int64(k)]
				if uint64(p.Owner[d]) != want || p.Col.Get(e0+int64(k)) != want {
					t.Fatalf("node %d edge %d: %v / Col %v, want %v", v, k, p.Owner[d], GlobalID(p.Col.Get(e0+int64(k))), GlobalID(want))
				}
				if weighted && p.EdgeW.Get(e0+int64(k)) != ref.edgeW[r][lo+int64(k)] {
					t.Fatalf("node %d edge %d: weight differs", v, k)
				}
			}
		}
		for r := 0; r < parts; r++ {
			if !slices.Equal(p.Col.Shard(r), ref.col[r]) {
				t.Fatalf("rank %d: column shard read through the view differs", r)
			}
		}
		if !slices.Equal(p.StructureBytesPerRank(), ref.structure) {
			t.Fatalf("structure bytes %v, want %v", p.StructureBytesPerRank(), ref.structure)
		}
		if !slices.Equal(p.FeatureBytesPerRank(), ref.featureTotals) {
			t.Fatalf("feature bytes %v, want %v", p.FeatureBytesPerRank(), ref.featureTotals)
		}
		// A range from a random element on, and random single elements,
		// through the kernels on both.
		dev, refDev := p.Comm.Devs[0], refComm.Devs[0]
		if e := p.Col.Len(); e > 0 {
			start := rng.Int63n(e)
			idx := append(indexRange(start, e), rng.Int63n(e), rng.Int63n(e), start)
			got, want := make([]uint64, len(idx)), make([]uint64, len(idx))
			p.Col.GatherElems(dev, idx, got, "fuzz")
			refCol.GatherElems(refDev, idx, want, "fuzz")
			if !slices.Equal(got, want) {
				t.Fatalf("column range from %d or elements %v differ", start, idx[len(idx)-3:])
			}
		}
		if feat != nil {
			start := rng.Int63n(p.Feat.Len())
			idx := indexRange(start, p.Feat.Len())
			got, want := make([]float32, len(idx)), make([]float32, len(idx))
			p.Feat.GatherElems(dev, idx, got, "fuzz")
			refFeat.GatherElems(refDev, idx, want, "fuzz")
			if !slices.Equal(got, want) {
				t.Fatalf("feature range from %d differs", start)
			}
		}
		if feat != nil {
			rows := make([]int64, 0, 2*n)
			for _, v := range rng.Perm(int(n)) {
				rows = append(rows, p.FeatRow(p.Owner[v]), p.FeatRow(p.Owner[rng.Int63n(n)]))
			}
			dev := p.Comm.Devs[rng.Intn(parts)]
			refDev := refComm.Devs[p.Comm.RankOfDevice(dev)]
			got, want := make([]float32, len(rows)*dim), make([]float32, len(rows)*dim)
			p.Feat.GatherRows(dev, rows, dim, got, "fuzz")
			refFeat.GatherRows(refDev, rows, dim, want, "fuzz")
			row := make([]float32, dim)
			for i, fr := range rows {
				p.Features().(RankedFeatures).ReadRow(fr, row)
				if !slices.Equal(got[i*dim:(i+1)*dim], want[i*dim:(i+1)*dim]) || !slices.Equal(row, want[i*dim:(i+1)*dim]) {
					t.Fatalf("feature row %d: gathered %v, read %v, want %v", fr, got[i*dim:(i+1)*dim], row, want[i*dim:(i+1)*dim])
				}
			}
		}
		for r, d := range p.Comm.Devs {
			rd := refComm.Devs[r]
			if d.Now() != rd.Now() || d.Stats != rd.Stats {
				t.Fatalf("rank %d: clock %g, stats %+v; copied layout %g, %+v", r, d.Now(), d.Stats, rd.Now(), rd.Stats)
			}
		}

		if _, err := l.Map(comm(), Paging{Topo: true}); weighted && err == nil {
			t.Fatal("a weighted layout mapped with paged topology")
		}
		gl, err := NewLayout(struct{ TopoSource }{csr}, feat, dim, parts, ownerOf)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := gl.Map(comm(), Paging{Topo: true, TopoOpts: topostore.Options{PageEdges: 1 + rng.Intn(64)}})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pp.Owner, p.Owner) || !slices.EqualFunc(pp.Orig, p.Orig, slices.Equal) {
			t.Fatal("the paged map placed nodes differently")
		}
		for r := 0; r < parts; r++ {
			if !slices.Equal(pp.RowPtr.Shard(r), p.RowPtr.Shard(r)) {
				t.Fatalf("rank %d: paged row pointers differ", r)
			}
		}
		if pp.PagedTopo().NumEdges() != p.Col.Len() {
			t.Fatalf("paged store of %d edges, want %d", pp.PagedTopo().NumEdges(), p.Col.Len())
		}
		acc := pp.PagedTopo().Begin(pp.Comm.Devs[rng.Intn(parts)])
		for e := int64(0); e < p.Col.Len(); e++ {
			if got, want := acc.At(e), p.Col.Get(e); got != want {
				t.Fatalf("edge %d: paged %v, resident %v", e, GlobalID(got), GlobalID(want))
			}
		}
		acc.Flush("fuzz")
	})
}

// indexRange returns the global indices lo, lo+1, …, hi-1.
func indexRange(lo, hi int64) []int64 {
	idx := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}
