package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// colValue reads the column entry at global edge index e: from the
// materialized array, or, paged, through a one-entry access batch on the
// communicator's first device.
func colValue(p *Partitioned, e int64) uint64 {
	if p.topo == nil {
		return p.Col.Get(e)
	}
	acc := p.topo.Begin(p.Comm.Devs[0])
	v := acc.At(e)
	acc.Flush("test")
	return v
}

// TestAdjMatchesGlobalIndexReads holds Adj to the reads it replaced: degree
// and first-edge index from two RowPtr.Get binary searches over the global
// row-pointer index, every neighbour from the column entry at that edge index — on a
// resident, a weighted and a paged partition of one graph.
func TestAdjMatchesGlobalIndexReads(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	csr := randomCSR(t, 500, 3000, 42)
	resident := mapLayout(t, csr, nil, 0, comm, Paging{})
	l, err := NewLayout(csr, nil, 0, comm.Size(), HashOwner(comm.Size()))
	if err != nil {
		t.Fatal(err)
	}
	l.AttachEdgeWeights(HashEdgeWeight)
	weighted, err := l.Map(comm, Paging{})
	if err != nil {
		t.Fatal(err)
	}
	paged := mapLayout(t, csr, nil, 0, comm, Paging{Topo: true, TopoOpts: topostore.Options{PageEdges: 7}})
	for name, p := range map[string]*Partitioned{"resident": resident, "weighted": weighted, "paged": paged} {
		for v := int64(0); v < csr.N; v++ {
			gid := p.Owner[v]
			rank := gid.Rank()
			base := p.RowPtr.ShardStart(rank) + gid.Local()
			lo, hi := p.RowPtr.Get(base), p.RowPtr.Get(base+1)
			wantE0 := lo
			if p.topo != nil {
				wantE0 += p.colBase[rank]
			} else {
				wantE0 += p.Col.ShardStart(rank)
			}

			nbrs, e0, deg := p.Adj(gid)
			if deg != hi-lo || deg != csr.Degree(v) || e0 != wantE0 {
				t.Fatalf("%s node %d: Adj = (e0 %d, deg %d), want (%d, %d)", name, v, e0, deg, wantE0, hi-lo)
			}
			if (nbrs == nil) != (p.topo != nil) && deg > 0 {
				t.Fatalf("%s node %d: neighbour slice presence %v", name, v, nbrs != nil)
			}
			for k, w := range csr.Neighbors(v) {
				want := p.Owner[w]
				if got := GlobalID(colValue(p, e0+int64(k))); got != want {
					t.Fatalf("%s node %d: column entry e0+%d = %v, want %v", name, v, k, got, want)
				}
				if nbrs != nil && nbrs[k] != w {
					t.Fatalf("%s node %d: nbrs[%d] = %d, want %d", name, v, k, nbrs[k], w)
				}
				if p.EdgeW != nil && p.EdgeW.Get(e0+int64(k)) != HashEdgeWeight(v, w) {
					t.Fatalf("%s node %d: e0+%d does not index the edge's weight", name, v, k)
				}
			}
		}
	}
}

// TestDegreeOrderMatchesComparator pins the packed-key ranking to the plain
// comparator it stands for — degree descending, node ID ascending within a
// degree — on skewed graphs with heavy tie pressure and a few hubs; the paged
// partition must rank identically and repeated calls share one slice.
func TestDegreeOrderMatchesComparator(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int64{1, 2, 63, 500, 4096} {
		csr := &CSR{N: n, RowPtr: make([]int64, n+1)}
		for v := int64(0); v < n; v++ {
			d := int64(rng.Intn(4))
			if rng.Intn(64) == 0 {
				d = int64(16 + rng.Intn(100))
			}
			csr.RowPtr[v+1] = csr.RowPtr[v] + d
		}
		csr.Col = make([]int64, csr.RowPtr[n])
		for i := range csr.Col {
			csr.Col[i] = rng.Int63n(n)
		}
		want := make([]int64, n)
		for v := range want {
			want[v] = int64(v)
		}
		sort.Slice(want, func(i, j int) bool {
			di, dj := csr.Degree(want[i]), csr.Degree(want[j])
			if di != dj {
				return di > dj
			}
			return want[i] < want[j]
		})

		pg := mapLayout(t, csr, nil, 0, comm, Paging{})
		got := pg.DegreeOrder()
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: degree order diverges from the comparator", n)
		}
		if again := pg.DegreeOrder(); &again[0] != &got[0] {
			t.Fatalf("n=%d: DegreeOrder recomputed", n)
		}
		paged := mapLayout(t, csr, nil, 0, comm, Paging{Topo: true, TopoOpts: topostore.Options{PageEdges: 64}})
		if !slices.Equal(paged.DegreeOrder(), want) {
			t.Fatalf("n=%d: paged degree order diverges", n)
		}
	}
}
