package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

func TestFromCOODirected(t *testing.T) {
	coo := COO{N: 4, Src: []int64{0, 0, 2, 3, 3}, Dst: []int64{1, 2, 0, 3, 1}}
	c, err := FromCOO(coo, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() != 5 {
		t.Fatalf("edges = %d, want 5", c.NumEdges())
	}
	if got := c.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("neighbors(0) = %v", got)
	}
	if c.Degree(1) != 0 {
		t.Errorf("degree(1) = %d, want 0", c.Degree(1))
	}
	if got := c.Neighbors(3); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("neighbors(3) = %v (should be sorted)", got)
	}
	if c.MaxDegree() != 2 {
		t.Errorf("max degree = %d", c.MaxDegree())
	}
}

func TestFromCOOUndirected(t *testing.T) {
	coo := COO{N: 3, Src: []int64{0, 1}, Dst: []int64{1, 2}}
	c, err := FromCOO(coo, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", c.NumEdges())
	}
	if got := c.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("neighbors(1) = %v", got)
	}
}

func TestFromCOORejectsBadEdges(t *testing.T) {
	if _, err := FromCOO(COO{N: 2, Src: []int64{0}, Dst: []int64{5}}, false); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := FromCOO(COO{N: 2, Src: []int64{-1}, Dst: []int64{0}}, false); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := FromCOO(COO{N: 2, Src: []int64{0, 1}, Dst: []int64{0}}, false); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestGlobalIDPacking(t *testing.T) {
	g := MakeGlobalID(7, 123456789)
	if g.Rank() != 7 || g.Local() != 123456789 {
		t.Fatalf("roundtrip failed: %v", g)
	}
	if s := g.String(); s != "7:123456789" {
		t.Errorf("String = %q", s)
	}
	f := func(rank uint16, local uint32) bool {
		g := MakeGlobalID(int(rank), int64(local))
		return g.Rank() == int(rank) && g.Local() == int64(local)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalIDPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MakeGlobalID(-1, 0) },
		func() { MakeGlobalID(1<<17, 0) },
		func() { MakeGlobalID(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRankForBalance(t *testing.T) {
	const parts, n = 8, 100000
	counts := make([]int, parts)
	for i := int64(0); i < n; i++ {
		r := RankFor(i, parts)
		if r < 0 || r >= parts {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c < n/parts*9/10 || c > n/parts*11/10 {
			t.Errorf("rank %d holds %d nodes, want ~%d (hash imbalance)", r, c, n/parts)
		}
	}
}

func randomCSR(t *testing.T, n, m int64, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := COO{N: n}
	for i := int64(0); i < m; i++ {
		coo.Src = append(coo.Src, rng.Int63n(n))
		coo.Dst = append(coo.Dst, rng.Int63n(n))
	}
	c, err := FromCOO(coo, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testPartition(t *testing.T) (*sim.Machine, *CSR, []float32, *Partitioned) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	const n, dim = 500, 3
	csr := randomCSR(t, n, 3000, 42)
	feat := make([]float32, n*dim)
	for i := range feat {
		feat[i] = float32(i)
	}
	return m, csr, feat, mapLayout(t, csr, feat, dim, comm, Paging{})
}

// mapLayout maps the hash layout of csr and feat on comm with paging pg.
func mapLayout(t *testing.T, csr *CSR, feat []float32, dim int, comm *wholemem.Comm, pg Paging) *Partitioned {
	t.Helper()
	l, err := NewLayout(csr, feat, dim, comm.Size(), HashOwner(comm.Size()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Map(comm, pg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPartitionPreservesTopology(t *testing.T) {
	_, csr, _, p := testPartition(t)
	for v := int64(0); v < csr.N; v++ {
		gid := p.Owner[v]
		if p.Orig[gid.Rank()][gid.Local()] != v {
			t.Fatalf("Owner/Orig mismatch for node %d", v)
		}
		nbrs, e0, deg := p.Adj(gid)
		if deg != csr.Degree(v) || int64(len(nbrs)) != deg {
			t.Fatalf("degree mismatch for node %d: %d (%d neighbours) vs %d", v, deg, len(nbrs), csr.Degree(v))
		}
		for k, w := range csr.Neighbors(v) {
			got := GlobalID(p.Col.Get(e0 + int64(k)))
			if p.Owner[nbrs[k]] != got || p.Orig[got.Rank()][got.Local()] != w {
				t.Fatalf("neighbor %d of node %d: got %v (orig %d), want %d",
					k, v, got, p.Orig[got.Rank()][got.Local()], w)
			}
		}
	}
}

func TestPartitionFeatures(t *testing.T) {
	_, csr, feat, p := testPartition(t)
	buf := make([]float32, p.Dim)
	for v := int64(0); v < csr.N; v++ {
		row := p.FeatRow(p.Owner[v])
		for j := 0; j < p.Dim; j++ {
			buf[j] = p.Feat.Get(row*int64(p.Dim) + int64(j))
		}
		for j := 0; j < p.Dim; j++ {
			if buf[j] != feat[v*int64(p.Dim)+int64(j)] {
				t.Fatalf("feature mismatch node %d dim %d: %g vs %g",
					v, j, buf[j], feat[v*int64(p.Dim)+int64(j)])
			}
		}
	}
}

func TestPartitionMemoryAccounting(t *testing.T) {
	_, csr, _, p := testPartition(t)
	var structure, features int64
	for _, b := range p.StructureBytesPerRank() {
		structure += b
	}
	for _, b := range p.FeatureBytesPerRank() {
		features += b
	}
	wantStruct := csr.NumEdges()*8 + (csr.N+int64(p.Comm.Size()))*8
	if structure != wantStruct {
		t.Errorf("structure bytes = %d, want %d", structure, wantStruct)
	}
	if features != csr.N*int64(p.Dim)*4 {
		t.Errorf("feature bytes = %d, want %d", features, csr.N*int64(p.Dim)*4)
	}
}

func TestPartitionRejectsBadFeatures(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, _ := wholemem.NewComm(m.NodeDevs(0))
	csr := randomCSR(t, 10, 20, 1)
	if _, err := NewLayout(csr, make([]float32, 7), 3, comm.Size(), HashOwner(comm.Size())); err == nil {
		t.Error("bad feature length accepted")
	}
}

func TestPartitionNilFeatures(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, _ := wholemem.NewComm(m.NodeDevs(0))
	csr := randomCSR(t, 50, 100, 2)
	p := mapLayout(t, csr, nil, 0, comm, Paging{})
	if p.Feat != nil {
		t.Error("Feat should be nil")
	}
	for _, b := range p.FeatureBytesPerRank() {
		if b != 0 {
			t.Error("feature bytes nonzero without features")
		}
	}
}
