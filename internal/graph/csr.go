// Package graph provides graph storage: host-side CSR (used by the
// CPU-resident baseline frameworks) and the hash-partitioned multi-GPU
// storage of WholeGraph (paper §III-B), where every node is assigned a
// GlobalID of (rank, localID), edges live with their source node, and node
// features live on the same GPU as the node.
package graph

import (
	"fmt"
	"math"
	"slices"

	"wholegraph/internal/tensor"
)

// COO is an edge list over nodes [0, N).
type COO struct {
	N        int64
	Src, Dst []int64
}

// CSR is a host-side compressed sparse row adjacency structure.
type CSR struct {
	N      int64
	RowPtr []int64 // len N+1
	Col    []int64 // len RowPtr[N]
}

// FromCOO builds a CSR from an edge list. When undirected is set, each edge
// is inserted in both directions (the paper stores ogbn-papers100M as an
// undirected graph, doubling its 1.6 B edges). Duplicate edges are kept;
// neighbor lists are sorted for determinism. An edge outside [0, N) is an
// error.
//
// Every step runs on the dense kernels' pool (tensor.Fanout), and none shows
// in the result: degrees are counted per claimant and summed, each worker
// scatters the entries of its own range of rows, and every list ends sorted,
// so neither the order in which a row's entries arrived nor who sorted it
// is left.
func FromCOO(coo COO, undirected bool) (*CSR, error) {
	if len(coo.Src) != len(coo.Dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d vs %d", len(coo.Src), len(coo.Dst))
	}
	w := tensor.Workers()
	rowptr, err := countDegrees(coo, undirected, w)
	if err != nil {
		return nil, err
	}
	col := make([]int64, rowptr[coo.N])
	scatter(coo, undirected, rowptr, col, w)
	sortRows(rowptr, col, w)
	return &CSR{N: coo.N, RowPtr: rowptr, Col: col}, nil
}

// edgeChunk is how many edges a claimant counts at a time.
const edgeChunk = 1 << 16

// countDegrees returns the row pointers of coo's CSR. Each claimant counts
// the chunks of edges it takes into a degree array of its own (claimant 0's
// becomes the result) and the arrays are summed; an edge outside [0, N)
// stops its chunk, and the first such edge of the list is the error.
func countDegrees(coo COO, undirected bool, w int) ([]int64, error) {
	n, m := coo.N, len(coo.Src)
	w = max(1, min(w, (m+edgeChunk-1)/edgeChunk))
	deg := make([][]int64, w)
	deg[0] = make([]int64, n+1)
	bad := make([]int, w) // each claimant's first out-of-range edge, or m
	for c := range bad {
		bad[c] = m
	}
	tensor.Fanout(w, m, edgeChunk, func(c, lo, hi int) {
		if deg[c] == nil {
			deg[c] = make([]int64, n+1)
		}
		d := deg[c]
		for i := lo; i < hi; i++ {
			s, t := coo.Src[i], coo.Dst[i]
			if uint64(s) >= uint64(n) || uint64(t) >= uint64(n) {
				bad[c] = min(bad[c], i)
				return
			}
			d[s+1]++
			if undirected {
				d[t+1]++
			}
		}
	})
	if i := slices.Min(bad); i < m {
		return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", coo.Src[i], coo.Dst[i], n)
	}
	rowptr := deg[0]
	if parts := slices.DeleteFunc(deg[1:], func(d []int64) bool { return d == nil }); len(parts) > 0 {
		tensor.Fanout(w, len(rowptr), edgeChunk, func(_, lo, hi int) {
			for _, d := range parts {
				for v := lo; v < hi; v++ {
					rowptr[v] += d[v]
				}
			}
		})
	}
	for v := int64(0); v < n; v++ {
		rowptr[v+1] += rowptr[v]
	}
	return rowptr, nil
}

// scatter fills col from coo. Worker i owns rows [cut[i], cut[i+1]), cut so
// that every worker's rows hold an equal share of the entries, and writes
// exactly those, in one pass over the whole edge list.
func scatter(coo COO, undirected bool, rowptr, col []int64, w int) {
	n := coo.N
	w = int(max(1, min(int64(w), n)))
	cut := make([]int64, w+1)
	for i := 1; i < w; i++ {
		c, _ := slices.BinarySearch(rowptr[:n], rowptr[n]*int64(i)/int64(w))
		cut[i] = int64(c)
	}
	cut[w] = n
	next := make([]int64, n)
	copy(next, rowptr[:n])
	tensor.Fanout(w, w, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r0, span := cut[i], uint64(cut[i+1]-cut[i])
			for e, s := range coo.Src {
				t := coo.Dst[e]
				if uint64(s-r0) < span {
					col[next[s]] = t
					next[s]++
				}
				if undirected && uint64(t-r0) < span {
					col[next[t]] = s
					next[t]++
				}
			}
		}
	})
}

// sortRows sorts every row of col, 1024 rows a claim. A row of at least
// N/16 entries is sorted by counting its values over [0, N) — a hub's
// entries fill such a histogram densely, so one pass over it beats a
// comparison sort — in a histogram of the claimant's own, made the first
// time it meets such a row.
func sortRows(rowptr, col []int64, w int) {
	n := int64(len(rowptr) - 1)
	hub := max(n/16, 2)
	hist := make([][]int32, w)
	tensor.Fanout(w, int(n), 1024, func(c, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := col[rowptr[v]:rowptr[v+1]]
			if int64(len(row)) < hub || len(row) > math.MaxInt32 {
				slices.Sort(row)
				continue
			}
			if hist[c] == nil {
				hist[c] = make([]int32, n)
			}
			countingSort(row, hist[c])
		}
	})
}

// countingSort sorts row, whose values lie in [0, len(hist)), through hist,
// which must be zero and is left zero.
func countingSort(row []int64, hist []int32) {
	for _, x := range row {
		hist[x]++
	}
	i := 0
	for x := 0; i < len(row); x++ {
		for c := hist[x]; c > 0; c-- {
			row[i] = int64(x)
			i++
		}
		hist[x] = 0
	}
}

// NumEdges returns the number of stored (directed) edges.
func (c *CSR) NumEdges() int64 { return c.RowPtr[c.N] }

// Degree returns the out-degree of node v.
func (c *CSR) Degree(v int64) int64 { return c.RowPtr[v+1] - c.RowPtr[v] }

// Neighbors returns node v's neighbor list (shared storage; do not mutate).
func (c *CSR) Neighbors(v int64) []int64 { return c.Col[c.RowPtr[v]:c.RowPtr[v+1]] }

// MaxDegree returns the largest out-degree in the graph.
func (c *CSR) MaxDegree() int64 {
	var m int64
	for v := int64(0); v < c.N; v++ {
		if d := c.Degree(v); d > m {
			m = d
		}
	}
	return m
}
