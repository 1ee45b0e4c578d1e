package dataset

import (
	"runtime"
	"slices"
	"testing"
)

// TestHashLayoutHoldsNoCopy: the host layout holds index arrays over the
// dataset, not a copy of it. Building it allocates a bounded number of bytes
// per node — the owner, orig and row-pointer arrays — and a constant per
// rank, with no term in the edge count or the feature width: the column
// array and the slab are read in place.
func TestHashLayoutHoldsNoCopy(t *testing.T) {
	d, err := Generate(OgbnProducts.Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	const ranks, perNode, perRank = 8, 64, 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := d.HashLayout(ranks); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	n, e := uint64(d.Graph.N), uint64(d.Graph.NumEdges())
	t.Logf("HashLayout(%d): %d bytes, %.1f per node", ranks, got, float64(got)/float64(n))
	if budget := perNode*n + perRank*ranks; got > budget {
		t.Errorf("HashLayout(%d) allocated %d bytes over %d nodes, %d edges and %d features per node: %.1f per node, budget %d",
			ranks, got, n, e, d.Spec.FeatDim, float64(got)/float64(n), budget)
	}
}

// TestLayoutViewsAreReadOnly: writes through a store's column or feature
// table panic and leave the dataset's CSR and slab as they were.
func TestLayoutViewsAreReadOnly(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	p := mapLayout(t, d)
	col, feat := slices.Clone(d.Graph.Col), slices.Clone(d.Feat)
	dim := p.Dim
	writes := map[string]func(){
		"Feat.Set":         func() { p.Feat.Set(0, 42) },
		"Feat.FillFrom":    func() { p.Feat.FillFrom(make([]float32, dim)) },
		"Feat.ScatterRows": func() { p.Feat.ScatterRows(p.Comm.Devs[0], []int64{1}, dim, make([]float32, dim), "test") },
		"Col.Set":          func() { p.Col.Set(0, 42) },
		"Col.FillFrom":     func() { p.Col.FillFrom([]uint64{42}) },
	}
	for name, write := range writes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s through a view did not panic", name)
				}
			}()
			write()
		}()
	}
	if !slices.Equal(d.Graph.Col, col) || !slices.Equal(d.Feat, feat) {
		t.Error("a write through a view reached the dataset")
	}
}
