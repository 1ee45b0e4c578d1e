package graph

import (
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// TestPagedMapMatchesResident: one layout mapped with paged topology must
// agree with the same layout mapped resident on everything observable —
// ownership, degrees, edge indices, decoded neighbors, features — with a
// page size small enough that fills span page, row, and rank boundaries.
func TestPagedMapMatchesResident(t *testing.T) {
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
	l, err := NewLayout(csr, feat, dim, comm.Size(), HashOwner(comm.Size()))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := l.Map(comm, Paging{})
	if err != nil {
		t.Fatal(err)
	}
	// PageEdges 7: every fill crosses rows; rank boundaries land mid-page.
	pg, err := l.Map(comm, Paging{Topo: true, TopoOpts: topostore.Options{PageEdges: 7}})
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
		pnbrs, pe0, pdeg := pg.Adj(gid)
		_, me0, deg := mat.Adj(gid)
		if pnbrs != nil {
			t.Fatalf("node %d: the paged map read neighbours from the CSR", v)
		}
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

// TestPagedMapAccounting: paged structure bytes count only the resident
// RowPtr shards; the virtual column is reported by the store.
func TestPagedMapAccounting(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	csr := randomCSR(t, 200, 1000, 7)
	p := mapLayout(t, csr, nil, 0, comm, Paging{Topo: true})
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

// TestMapRejectsUnservableTables: a layout maps with paged topology only
// without edge weights, and with resident columns only over a CSR.
func TestMapRejectsUnservableTables(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, _ := wholemem.NewComm(m.NodeDevs(0))
	csr := randomCSR(t, 50, 100, 3)
	weighted, err := NewLayout(csr, nil, 0, comm.Size(), HashOwner(comm.Size()))
	if err != nil {
		t.Fatal(err)
	}
	weighted.AttachEdgeWeights(func(u, v int64) float32 { return 1 })
	generated, err := NewLayout(struct{ TopoSource }{csr}, nil, 0, comm.Size(), HashOwner(comm.Size()))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		l  *Layout
		pg Paging
	}{
		"weights under paged topology":   {weighted, Paging{Topo: true}},
		"resident columns without a CSR": {generated, Paging{}},
	} {
		if _, err := c.l.Map(comm, c.pg); err == nil {
			t.Errorf("%s: mapped", name)
		}
	}
	if _, err := generated.Map(comm, Paging{Topo: true}); err != nil {
		t.Errorf("paged topology over a generated source: %v", err)
	}
}
