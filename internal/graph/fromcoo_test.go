package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wholegraph/internal/tensor"
)

// referenceCSR builds coo's CSR the plain way: append every entry to its
// row, then sort each row.
func referenceCSR(coo COO, undirected bool) *CSR {
	rows := make([][]int64, coo.N)
	for i, s := range coo.Src {
		d := coo.Dst[i]
		rows[s] = append(rows[s], d)
		if undirected {
			rows[d] = append(rows[d], s)
		}
	}
	c := &CSR{N: coo.N, RowPtr: make([]int64, coo.N+1)}
	for v, row := range rows {
		slices.Sort(row)
		c.Col = append(c.Col, row...)
		c.RowPtr[v+1] = int64(len(c.Col))
	}
	return c
}

// FuzzFromCOO builds random edge lists — up to four hub rows forced past
// the counting-sort threshold of N/16 entries, and enough edges that the
// degree count spans several chunks — at one to four workers, directed and
// undirected, and compares FromCOO with referenceCSR. When bad is set, one
// edge is moved outside [0, N), and FromCOO must return an error naming
// the first such edge instead of panicking.
func FuzzFromCOO(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(500), uint8(1), false, uint8(1), int8(0))
	f.Add(int64(2), uint16(1000), uint16(40000), uint8(3), true, uint8(2), int8(0))
	f.Add(int64(3), uint16(5), uint16(7), uint8(2), true, uint8(4), int8(0))
	f.Add(int64(4), uint16(300), uint16(2000), uint8(0), false, uint8(2), int8(-3))
	f.Add(int64(5), uint16(300), uint16(2000), uint8(1), true, uint8(3), int8(9))
	f.Add(int64(6), uint16(1), uint16(3), uint8(1), false, uint8(2), int8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edges uint16, hubs uint8, undirected bool, workers uint8, bad int8) {
		defer tensor.SetWorkers(tensor.SetWorkers(1 + int(workers%4)))
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int64(nodes%4000)
		coo := COO{N: n}
		add := func(s, d int64) {
			coo.Src = append(coo.Src, s)
			coo.Dst = append(coo.Dst, d)
		}
		for i := 0; i < 2*int(edges); i++ {
			add(rng.Int63n(n), rng.Int63n(n))
		}
		for h := 0; h < int(hubs%5); h++ {
			hub := rng.Int63n(n)
			for k := int64(0); k < n/16+1+rng.Int63n(n); k++ {
				add(hub, rng.Int63n(n))
			}
		}
		rng.Shuffle(len(coo.Src), func(i, j int) {
			coo.Src[i], coo.Src[j] = coo.Src[j], coo.Src[i]
			coo.Dst[i], coo.Dst[j] = coo.Dst[j], coo.Dst[i]
		})
		if bad != 0 && len(coo.Src) > 0 {
			i := rng.Intn(len(coo.Src))
			end := &coo.Src[i]
			if bad%2 == 0 {
				end = &coo.Dst[i]
			}
			if bad < 0 {
				*end = -int64(-bad)
			} else {
				*end = n + int64(bad)
			}
			first := 0
			for j := range coo.Src {
				if coo.Src[j] < 0 || coo.Src[j] >= n || coo.Dst[j] < 0 || coo.Dst[j] >= n {
					first = j
					break
				}
			}
			_, err := FromCOO(coo, undirected)
			want := fmt.Sprintf("edge (%d,%d) out of range", coo.Src[first], coo.Dst[first])
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("out-of-range edge %d: error %v, want one saying %q", first, err, want)
			}
			return
		}
		got, err := FromCOO(coo, undirected)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceCSR(coo, undirected)
		if !slices.Equal(got.RowPtr, want.RowPtr) {
			t.Fatal("row pointers differ from the reference")
		}
		if !slices.Equal(got.Col, want.Col) {
			for v := int64(0); v < n; v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("row %d (%d entries): %v, reference %v", v, got.Degree(v), got.Neighbors(v), want.Neighbors(v))
				}
			}
		}
	})
}
