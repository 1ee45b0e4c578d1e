package dataset

import (
	"math"
	"sync"

	"wholegraph/internal/graph"
	"wholegraph/internal/tensor"
)

// EdgeGen defines a graph's adjacency as a pure function: every node's
// out-degree and every neighbor slot (v, k) are computed from the spec
// seed by hashing, so the edge list is never materialized — the topology
// analogue of FeatureGen. It mirrors the marginal structure of Generate's
// COO sampler (Zipf degrees scattered by the affine permutation,
// homophilous endpoints, no self-loops) without replaying its sequential
// RNG, which is what makes O(1) random access possible: papers100M's
// 3.2B stored edges (~26 GB of CSR column) stay virtual, paged in range
// by range through internal/topostore.
//
// EdgeGen satisfies graph.TopoSource structurally.
type EdgeGen struct {
	spec Spec
	perm affinePerm

	// Expected degree model: d(v) = zipfCoef*P(slot(v)) + unif, where
	// P(k) = (k+1)^{-s} / hNorm is the popularity of slot k. For
	// undirected specs both endpoints of a pair contribute stored degree
	// (Zipf as source, Zipf-or-uniform-in-class as destination), giving
	// zipfCoef = Edges*(2-Homophily) and unif = Edges*Homophily/Nodes.
	hNorm    float64
	zipfCoef float64
	unif     float64

	// Inverse-CDF constants for the continuous Zipf endpoint draw:
	// slot(t) = floor((1 + t*powA)^{powInv}) - 1 over slots [0, n).
	powA   float64
	powInv float64

	once  sync.Once
	total int64
}

// NewEdgeGen builds the generator for s (spec must validate).
func NewEdgeGen(s Spec) *EdgeGen {
	n := s.Nodes
	g := &EdgeGen{spec: s, perm: newAffinePerm(n)}
	g.hNorm = zipfNorm(n, s.ZipfS)
	e := float64(s.Edges)
	if s.Undirected {
		g.zipfCoef = e * (2 - s.Homophily)
		g.unif = e * s.Homophily / float64(n)
	} else {
		g.zipfCoef = e
	}
	g.powA = math.Pow(float64(n+1), 1-s.ZipfS) - 1
	g.powInv = 1 / (1 - s.ZipfS)
	return g
}

// zipfNorm computes H(n,s) = sum_{j=1..n} j^{-s}: an exact partial sum
// over the head (where the mass is) plus the midpoint-rule integral tail,
// so full-size specs (n > 1e8) don't pay 1e8 Pow calls at construction.
func zipfNorm(n int64, s float64) float64 {
	head := n
	if head > 100_000 {
		head = 100_000
	}
	var h float64
	for j := int64(1); j <= head; j++ {
		h += math.Pow(float64(j), -s)
	}
	if head < n {
		// integral of x^-s over [head+0.5, n+0.5]
		h += (math.Pow(float64(n)+0.5, 1-s) - math.Pow(float64(head)+0.5, 1-s)) / (1 - s)
	}
	return h
}

// NumNodes implements graph.TopoSource.
func (g *EdgeGen) NumNodes() int64 { return g.spec.Nodes }

// Degree returns node v's stored out-degree: the expected degree of its
// popularity slot, probabilistically rounded by a per-node hash and
// capped at n-1. Deterministic in (spec, v).
func (g *EdgeGen) Degree(v int64) int64 {
	slot := g.perm.invert(v)
	d := g.zipfCoef*math.Pow(float64(slot+1), -g.spec.ZipfS)/g.hNorm + g.unif
	base := math.Floor(d)
	u := uniform(mix64(hashBase(g.spec.Seed, v, degreeSlot) + gamma1))
	deg := int64(base)
	if u < d-base {
		deg++
	}
	if max := g.spec.Nodes - 1; deg > max {
		deg = max
	}
	return deg
}

// NumEdges returns the total stored (directed) edge count, the sum of all
// realized degrees. Computed once, lazily: O(n) with one Pow per node.
func (g *EdgeGen) NumEdges() int64 {
	g.once.Do(func() {
		var t int64
		for v := int64(0); v < g.spec.Nodes; v++ {
			t += g.Degree(v)
		}
		g.total = t
	})
	return g.total
}

// materialize builds the CSR holding exactly the lists g defines, row by
// row, no re-sorting. Degrees and rows are computed on the dense kernels'
// pool, 1024 nodes a claim; only the prefix sum of the degrees is serial.
func (g *EdgeGen) materialize() *graph.CSR {
	n := g.spec.Nodes
	rowPtr := make([]int64, n+1)
	tensor.Fanout(tensor.Workers(), int(n), 1024, func(_, lo, hi int) {
		for v := int64(lo); v < int64(hi); v++ {
			rowPtr[v+1] = g.Degree(v)
		}
	})
	for v := int64(0); v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	col := make([]int64, rowPtr[n])
	tensor.Fanout(tensor.Workers(), int(n), 1024, func(_, lo, hi int) {
		for v := int64(lo); v < int64(hi); v++ {
			g.FillNeighbors(v, 0, rowPtr[v+1]-rowPtr[v], col[rowPtr[v]:rowPtr[v+1]])
		}
	})
	return &graph.CSR{N: n, RowPtr: rowPtr, Col: col}
}

// FillNeighbors implements graph.TopoSource: it writes neighbor slots
// [k0, k1) of node v into dst. Each slot is an independent hash draw
// mirroring Generate's endpoint sampler: with probability Homophily a
// uniform same-class node, otherwise a Zipf-popular node via the inverse
// CDF, with a hashed re-draw displacing self-loops.
func (g *EdgeGen) FillNeighbors(v, k0, k1 int64, dst []int64) {
	s := g.spec
	n := s.Nodes
	c := int64(s.NumClasses)
	cls := v % c
	cnt := (n-cls-1)/c + 1
	for k := k0; k < k1; k++ {
		base := hashBase(s.Seed, v, k)
		u1 := uniform(mix64(base + gamma1))
		u2 := mix64(base + gamma2)
		var d int64
		if u1 < s.Homophily {
			d = cls + c*int64(u2%uint64(cnt))
		} else {
			d = g.perm.apply(g.zipfSlot(uniform(u2)))
		}
		if d == v {
			u3 := mix64(base + gamma3)
			d = (v + 1 + int64(u3%uint64(n-1))) % n
		}
		dst[k-k0] = d
	}
}

// zipfSlot inverts the continuous Zipf CDF: t in [0,1) to a slot in
// [0, n) with P(slot) ~ (slot+1)^-s.
func (g *EdgeGen) zipfSlot(t float64) int64 {
	x := math.Pow(1+t*g.powA, g.powInv)
	slot := int64(x) - 1
	if slot < 0 {
		slot = 0
	}
	if max := g.spec.Nodes - 1; slot > max {
		slot = max
	}
	return slot
}

// Wrapped multiples of the splitmix64 golden gamma, salting the
// independent per-slot draws.
const (
	gamma1 uint64 = 0x9e3779b97f4a7c15
	gamma2 uint64 = 0x3c6ef372fe94f82a // 2*gamma1 mod 2^64
	gamma3 uint64 = 0xdaa66d2c7ddf743f // 3*gamma1 mod 2^64
)

// Slots below zero key per-node draws rather than a neighbor slot.
const (
	degreeSlot int64 = -1 // EdgeGen's degree rounding
	featSlot   int64 = -2 // FeatureGen's noise stream
)

// hashBase keys the (v, k) slot of the dataset seeded by seed.
func hashBase(seed, v, k int64) uint64 {
	return uint64(seed)*gamma1 +
		uint64(v)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// uniform maps a hash to [0,1) with 53 bits of precision.
func uniform(h uint64) float64 { return float64(h>>11) / (1 << 53) }
