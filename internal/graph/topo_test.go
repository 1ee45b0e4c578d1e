package graph

import (
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// TestPartitionPagedMatchesMaterialized: PartitionPaged over a CSR's
// TopoSource view must agree with Partition on everything observable —
// ownership, degrees, edge indices, decoded neighbors, features — with a
// page size small enough that fills span page, row, and rank boundaries.
func TestPartitionPagedMatchesMaterialized(t *testing.T) {
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
	mat, err := Partition(csr, feat, dim, comm)
	if err != nil {
		t.Fatal(err)
	}
	// PageEdges 7: every fill crosses rows; rank boundaries land mid-page.
	pg, err := PartitionPaged(CSRTopo{csr}, feat, dim, comm, topostore.Options{PageEdges: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pg.PagedTopo() == nil || pg.Col != nil {
		t.Fatal("paged partition materialized a column array")
	}
	if mat.PagedTopo() != nil {
		t.Fatal("materialized partition has a paged store")
	}
	if got, want := pg.PagedTopo().NumEdges(), csr.NumEdges(); got != want {
		t.Fatalf("paged edge count %d != %d", got, want)
	}
	for v := int64(0); v < n; v++ {
		if pg.Owner[v] != mat.Owner[v] {
			t.Fatalf("owner mismatch for node %d", v)
		}
		gid := pg.Owner[v]
		_, pe0, pdeg := pg.Adj(gid)
		_, me0, deg := mat.Adj(gid)
		if pdeg != deg {
			t.Fatalf("degree mismatch for node %d", v)
		}
		if pg.FeatRow(gid) != mat.FeatRow(gid) {
			t.Fatalf("feature row mismatch for node %d", v)
		}
		if pe0 != me0 {
			t.Fatalf("first edge index mismatch for node %d", v)
		}
		for k := int64(0); k < deg; k++ {
			if colValue(pg, pe0+k) != mat.Col.Get(me0+k) {
				t.Fatalf("neighbor mismatch at (%d,%d)", v, k)
			}
		}
	}
	// Features landed in identical shards.
	for r := 0; r < comm.Size(); r++ {
		ms, ps := mat.Feat.Shard(r), pg.Feat.Shard(r)
		if len(ms) != len(ps) {
			t.Fatalf("feature shard %d length mismatch", r)
		}
		for i := range ms {
			if ms[i] != ps[i] {
				t.Fatalf("feature shard %d element %d mismatch", r, i)
			}
		}
	}
	// One batch over the whole column decodes the same values.
	dev := comm.Devs[0]
	ts := pg.PagedTopo()
	acc := ts.Begin(dev)
	for e := int64(0); e < csr.NumEdges(); e++ {
		if got, want := acc.At(e), mat.Col.Get(e); got != want {
			t.Fatalf("Access.At(%d) = %d, want %d", e, got, want)
		}
	}
	acc.Flush("test")
}

// TestPartitionPagedAccounting: paged structure bytes count only the
// resident RowPtr shards; the virtual column is reported by the store.
func TestPartitionPagedAccounting(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	csr := randomCSR(t, 200, 1000, 7)
	p, err := PartitionPaged(CSRTopo{csr}, nil, 0, comm, topostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var structure int64
	for _, b := range p.StructureBytesPerRank() {
		structure += b
	}
	want := (csr.N + int64(comm.Size())) * 8 // RowPtr only, no Col
	if structure != want {
		t.Errorf("paged structure bytes = %d, want %d", structure, want)
	}
	if got := p.PagedTopo().TopoBytes(); got != csr.NumEdges()*8 {
		t.Errorf("virtual topo bytes = %d, want %d", got, csr.NumEdges()*8)
	}
}

// TestPartitionPagedRejectsEdgeWeights: edge weights require a
// materialized column array.
func TestPartitionPagedRejectsEdgeWeights(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, _ := wholemem.NewComm(m.NodeDevs(0))
	csr := randomCSR(t, 50, 100, 3)
	p, err := PartitionPaged(CSRTopo{csr}, nil, 0, comm, topostore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AttachEdgeWeights on a paged partition did not panic")
		}
	}()
	p.AttachEdgeWeights(func(u, v int64) float32 { return 1 })
}
