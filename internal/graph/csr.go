// Package graph provides graph storage: host-side CSR (used by the
// CPU-resident baseline frameworks) and the hash-partitioned multi-GPU
// storage of WholeGraph (paper §III-B), where every node is assigned a
// GlobalID of (rank, localID), edges live with their source node, and node
// features live on the same GPU as the node.
package graph

import (
	"fmt"
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
// neighbor lists are sorted for determinism.
func FromCOO(coo COO, undirected bool) (*CSR, error) {
	n := coo.N
	if len(coo.Src) != len(coo.Dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d vs %d", len(coo.Src), len(coo.Dst))
	}
	deg := make([]int64, n+1)
	count := func(s, d int64) error {
		if s < 0 || s >= n || d < 0 || d >= n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", s, d, n)
		}
		deg[s+1]++
		return nil
	}
	for i := range coo.Src {
		if err := count(coo.Src[i], coo.Dst[i]); err != nil {
			return nil, err
		}
		if undirected {
			deg[coo.Dst[i]+1]++
		}
	}
	rowptr := deg
	for i := int64(0); i < n; i++ {
		rowptr[i+1] += rowptr[i]
	}
	col := make([]int64, rowptr[n])
	next := make([]int64, n)
	copy(next, rowptr[:n])
	put := func(s, d int64) {
		col[next[s]] = d
		next[s]++
	}
	for i := range coo.Src {
		put(coo.Src[i], coo.Dst[i])
		if undirected {
			put(coo.Dst[i], coo.Src[i])
		}
	}
	// Each list is sorted on its own, so which goroutine sorts it changes
	// nothing; 1024 rows are tens of microseconds of sorting, hubs more.
	tensor.Fanout(tensor.Workers(), int(n), 1024, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			slices.Sort(col[rowptr[v]:rowptr[v+1]])
		}
	})
	return &CSR{N: n, RowPtr: rowptr, Col: col}, nil
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

// StructureBytes returns the memory footprint of the adjacency arrays,
// using the paper's accounting of 8 bytes per stored edge plus row offsets.
func (c *CSR) StructureBytes() int64 {
	return 8*int64(len(c.Col)) + 8*int64(len(c.RowPtr))
}
