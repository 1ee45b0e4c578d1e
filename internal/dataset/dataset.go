// Package dataset generates the synthetic stand-ins for the four graphs the
// paper evaluates on (Table II): ogbn-products, ogbn-papers100M, Friendster
// and UK_domain. The real datasets are not redistributable/downloadable in
// this offline environment (papers100M alone is >50 GB of features), so we
// generate power-law graphs that preserve what drives the paper's
// measurements — node count, edge count, feature dimension, label ratio and
// a heavy-tailed degree distribution — at a configurable scale factor.
//
// Features are label-correlated (class centroid plus Gaussian noise) and
// edges are homophilous (neighbors tend to share classes), so GNN training
// genuinely learns and the accuracy experiments (Figure 7, Table III) are
// meaningful rather than decorative.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"wholegraph/internal/graph"
	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// Spec describes a dataset to generate.
type Spec struct {
	Name string
	// Nodes and Edges are the target sizes; Edges counts edge pairs before
	// any undirected doubling (the counts reported in Table II).
	Nodes int64
	Edges int64
	// FeatDim is the node feature dimension, NumClasses the label count.
	FeatDim    int
	NumClasses int
	// LabelRatio is the fraction of nodes that carry labels; labeled nodes
	// are split TrainFrac/ValFrac/TestFrac (the paper uses 1% labels split
	// 80/10/10 for Friendster and UK_domain).
	LabelRatio         float64
	TrainFrac, ValFrac float64
	// Undirected stores each edge in both directions, as the paper does
	// for ogbn-papers100M.
	Undirected bool
	// ZipfS shapes the degree power law (>1; larger = lighter tail).
	ZipfS float64
	// Homophily is the probability an edge endpoint is drawn from the
	// source's own class, giving GNNs signal to learn from.
	Homophily float64
	// NoiseSigma scales the Gaussian feature noise around class centroids.
	NoiseSigma float64
	// Weighted attaches synthetic edge weights (graph.HashEdgeWeight) to
	// the stored edges, exercising the paper's edge-feature path e_{s,t}.
	Weighted bool
	Seed     int64
}

// Validate reports whether the spec can be generated. Every comparison is
// written so that NaN fails it.
func (s Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("dataset %s: Nodes must be positive", s.Name)
	case s.Edges < 0:
		return fmt.Errorf("dataset %s: Edges must be non-negative", s.Name)
	case s.Edges > 0 && s.Nodes < 2:
		// An edge's endpoint drawn equal to its source moves to another node.
		return fmt.Errorf("dataset %s: Nodes must be >= 2 when Edges > 0", s.Name)
	case s.FeatDim <= 0:
		return fmt.Errorf("dataset %s: FeatDim must be positive", s.Name)
	case s.NumClasses < 2:
		return fmt.Errorf("dataset %s: NumClasses must be >= 2", s.Name)
	case !(s.LabelRatio > 0 && s.LabelRatio <= 1):
		return fmt.Errorf("dataset %s: LabelRatio must be in (0,1]", s.Name)
	case !(s.TrainFrac >= 0 && s.ValFrac >= 0 && s.TrainFrac+s.ValFrac <= 1):
		return fmt.Errorf("dataset %s: bad train/val split: TrainFrac and ValFrac must be >= 0 with TrainFrac+ValFrac <= 1", s.Name)
	case !(s.ZipfS > 1 && !math.IsInf(s.ZipfS, 1)):
		// Zipf's rejection loop never accepts a draw when s is NaN.
		return fmt.Errorf("dataset %s: ZipfS must be finite and > 1", s.Name)
	case !(s.Homophily >= 0 && s.Homophily <= 1):
		return fmt.Errorf("dataset %s: Homophily must be in [0,1]", s.Name)
	case !(s.NoiseSigma >= 0 && !math.IsInf(s.NoiseSigma, 1)):
		return fmt.Errorf("dataset %s: NoiseSigma must be finite and >= 0", s.Name)
	}
	return nil
}

// CheckScale reports why f cannot scale a spec: Scaled needs a positive,
// finite factor, and clamps whatever else it is given to a 64-node graph.
// Callers that take a scale from outside the program check it first.
func CheckScale(f float64) error {
	if !(f > 0) || math.IsInf(f, 1) { // NaN fails f > 0
		return fmt.Errorf("dataset: scale %v is not positive and finite", f)
	}
	return nil
}

// Scaled returns the spec with node and edge counts multiplied by f,
// keeping the average degree. The name records the scale.
func (s Spec) Scaled(f float64) Spec {
	if f == 1 {
		return s
	}
	s.Name = fmt.Sprintf("%s@%g", s.Name, f)
	s.Nodes = int64(math.Max(64, float64(s.Nodes)*f))
	s.Edges = int64(math.Max(128, float64(s.Edges)*f))
	return s
}

// Specs for the four evaluation graphs of Table II at full size.
var (
	OgbnProducts = Spec{
		Name: "ogbn-products", Nodes: 2_400_000, Edges: 61_900_000,
		FeatDim: 100, NumClasses: 47, LabelRatio: 0.10,
		TrainFrac: 0.8, ValFrac: 0.1, Undirected: true,
		ZipfS: 1.35, Homophily: 0.6, NoiseSigma: 1.0, Seed: 11,
	}
	OgbnPapers100M = Spec{
		Name: "ogbn-papers100M", Nodes: 111_100_000, Edges: 1_600_000_000,
		FeatDim: 128, NumClasses: 172, LabelRatio: 0.011,
		TrainFrac: 0.8, ValFrac: 0.1, Undirected: true,
		ZipfS: 1.3, Homophily: 0.55, NoiseSigma: 1.2, Seed: 12,
	}
	Friendster = Spec{
		Name: "Friendster", Nodes: 68_300_000, Edges: 2_600_000_000,
		FeatDim: 128, NumClasses: 64, LabelRatio: 0.01,
		TrainFrac: 0.8, ValFrac: 0.1, Undirected: true,
		ZipfS: 1.3, Homophily: 0.5, NoiseSigma: 1.2, Seed: 13,
	}
	UKDomain = Spec{
		Name: "UK_domain", Nodes: 105_200_000, Edges: 3_300_000_000,
		FeatDim: 128, NumClasses: 64, LabelRatio: 0.01,
		TrainFrac: 0.8, ValFrac: 0.1, Undirected: true,
		ZipfS: 1.25, Homophily: 0.5, NoiseSigma: 1.2, Seed: 14,
	}
)

// Registry maps dataset names to their full-size specs.
var Registry = map[string]Spec{
	OgbnProducts.Name:   OgbnProducts,
	OgbnPapers100M.Name: OgbnPapers100M,
	Friendster.Name:     Friendster,
	UKDomain.Name:       UKDomain,
}

// All returns the four paper datasets in evaluation order.
func All() []Spec {
	return []Spec{OgbnProducts, OgbnPapers100M, Friendster, UKDomain}
}

// Dataset is a generated graph with features, labels and splits.
type Dataset struct {
	Spec  Spec
	Graph *graph.CSR
	// Topo is the hash-defined adjacency of out-of-core datasets
	// (GenerateOutOfCore leaves Graph nil and sets Topo; the paged
	// topology store reads edge ranges from it on demand).
	// MaterializeOutOfCore sets both, with Graph holding exactly the
	// lists Topo defines.
	Topo *EdgeGen
	// Feat is the materialized feature slab, row-major [Nodes x FeatDim].
	// Out-of-core datasets (GenerateOutOfCore) leave it nil and carry only
	// Gen; consumers that need rows use FillFeatRow or a paged store.
	Feat   []float32
	Gen    *FeatureGen
	Labels []int32 // -1 for unlabeled nodes
	// Train, Val and Test hold labeled node IDs.
	Train, Val, Test []int64

	// layouts memoises HashLayout: rank count -> *layoutMemo.
	layouts sync.Map
}

type layoutMemo struct {
	once sync.Once
	l    *graph.Layout
	err  error
}

// HashLayout returns the paper's hash partition of the CSR, the feature slab
// and, for a Weighted spec, the edge weights over parts ranks. It is built
// once per rank count for the dataset's lifetime — concurrent callers wait
// for the one build — and is read-only, so every flat store over the dataset
// maps the same host arrays, however many machine nodes or trainers build
// one.
func (d *Dataset) HashLayout(parts int) (*graph.Layout, error) {
	if d.Graph == nil {
		return nil, fmt.Errorf("dataset %s: out-of-core (no materialized CSR) has no host layout", d.Spec.Name)
	}
	v, _ := d.layouts.LoadOrStore(parts, new(layoutMemo))
	e := v.(*layoutMemo)
	e.once.Do(func() {
		e.l, e.err = graph.NewLayout(d.Graph, d.Feat, d.Spec.FeatDim, parts, graph.HashOwner(parts))
		if e.err == nil && d.Spec.Weighted {
			e.l.AttachEdgeWeights(graph.HashEdgeWeight)
		}
	})
	return e.l, e.err
}

// FillFeatRow writes node v's feature row into dst, from the slab when
// materialized and from the generator otherwise. Both paths produce
// bit-identical values: the slab is filled by the same generator.
func (d *Dataset) FillFeatRow(v int64, dst []float32) {
	if d.Feat != nil {
		dim := int64(d.Spec.FeatDim)
		copy(dst, d.Feat[v*dim:(v+1)*dim])
		return
	}
	d.Gen.FillRow(v, dst)
}

// Class returns node v's class, which is fixed by construction (v mod C)
// so that homophilous edge sampling is O(1).
func (s Spec) Class(v int64) int32 { return int32(v % int64(s.NumClasses)) }

// GenerateOutOfCore builds the dataset without materializing either big
// array: Dataset.Feat stays nil (rows come on demand from Dataset.Gen,
// each from its own hash-keyed stream) and Dataset.Graph stays nil too —
// the adjacency is Dataset.Topo, an EdgeGen that computes any neighbor
// range by hashing, so the ~26 GB papers100M CSR column is never built.
// Labels, splits and feature centroids still come from the spec-seeded
// RNG and are shared bit-for-bit with MaterializeOutOfCore, the in-RAM
// twin used by equivalence tests and ablation baselines.
//
// Note: the hash-defined topology is a different (same-distribution)
// graph than Generate's sequential COO sampler produces — random access
// to an edge stream that was defined by a sequential RNG is not possible,
// so out-of-core datasets define the graph functionally instead. Training
// it requires train.Options.PagedTopo (and PagedFeatures).
func GenerateOutOfCore(s Spec) (*Dataset, error) {
	return generateOOC(s, false)
}

// MaterializeOutOfCore builds the in-RAM twin of GenerateOutOfCore: the
// same labels, splits and feature generator, with the feature slab filled
// and the EdgeGen adjacency materialized into a CSR holding exactly the
// lists Topo defines (row by row, no re-sorting). Paged-topology training
// over GenerateOutOfCore(s) is bit-identical to in-RAM training over
// MaterializeOutOfCore(s); only viable at bench scales, by design.
func MaterializeOutOfCore(s Spec) (*Dataset, error) {
	return generateOOC(s, true)
}

func generateOOC(s Spec, materialize bool) (*Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Weighted {
		return nil, fmt.Errorf("dataset %s: out-of-core topology does not support edge weights", s.Name)
	}
	rng := rand.New(xrand.New(s.Seed))
	ds := &Dataset{Spec: s, Topo: NewEdgeGen(s), Gen: newFeatureGen(s, rng)}
	ds.generateSplits(rng)
	if materialize {
		ds.Feat = make([]float32, s.Nodes*int64(s.FeatDim))
		ds.fillSlab(ds.Gen.FillRow)
		ds.Graph = ds.Topo.materialize()
	}
	return ds, nil
}

// Generate builds the dataset described by s. Generation is deterministic
// for a given spec (including seed).
//
// The edge list is drawn from the spec-seeded stream one edge after
// another — how many draws an edge takes depends on the values drawn — so it
// is one item of work; while it runs, the feature slab's noise, a function
// of the node alone, is filled on the other cores. The class centroids are
// drawn after the edges, as they always were, and added to the slab once
// the adjacency is built.
func Generate(s Spec) (*Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src := xrand.New(s.Seed)
	ds := &Dataset{Spec: s, Feat: make([]float32, s.Nodes*int64(s.FeatDim))}
	rows := int(s.Nodes)
	var coo graph.COO
	// Item 0 is the edge loop, item i > 0 the noise of slab chunk i-1.
	tensor.Fanout(tensor.Workers(), 1+(rows+slabChunk-1)/slabChunk, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				coo = drawEdges(s, src)
				continue
			}
			ds.slabRows((i-1)*slabChunk, min(i*slabChunk, rows), s.fillNoise)
		}
	})
	rng := rand.New(src)
	ds.Gen = newFeatureGen(s, rng)
	csr, err := graph.FromCOO(coo, s.Undirected)
	if err != nil {
		return nil, err
	}
	ds.Graph = csr
	ds.fillSlab(ds.Gen.addCentroid)
	ds.generateSplits(rng)
	return ds, nil
}

// drawEdges samples s.Edges edge pairs from src. Degrees follow a power
// law: sources are drawn from a Zipf over "popularity slots", scattered over
// node IDs by a fixed affine permutation so hubs do not cluster in one hash
// partition.
func drawEdges(s Spec, src *xrand.Source) graph.COO {
	n, c := s.Nodes, int64(s.NumClasses)
	zipf := xrand.NewZipf(src, s.ZipfS, 1, uint64(n-1))
	perm := newAffinePerm(n)
	coo := graph.COO{N: n, Src: make([]int64, s.Edges), Dst: make([]int64, s.Edges)}
	for i := range coo.Src {
		u := perm.apply(int64(zipf.Uint64()))
		var v int64
		if src.Float64() < s.Homophily {
			// Same-class endpoint: classes are v mod C, so a uniform
			// same-class draw is class + C*k.
			cls := u % c
			v = cls + c*src.Int63n((n-cls-1)/c+1)
		} else {
			v = perm.apply(int64(zipf.Uint64()))
		}
		if v == u {
			v = (u + 1 + src.Int63n(n-1)) % n
		}
		coo.Src[i], coo.Dst[i] = u, v
	}
	return coo
}

// FeatureGen regenerates any node's label-correlated feature row on
// demand: each class has a random centroid direction (drawn once from the
// dataset RNG) and every node is its centroid plus Gaussian noise from the
// node's own counter-based stream (a splitmix64 sequence keyed by the
// hash of (seed, v), like EdgeGen's slots). FillRow is deterministic per
// node, allocates nothing, and is safe for concurrent calls with distinct
// dst buffers, which makes the generator a featstore.RowSource — the
// backing for out-of-core datasets.
type FeatureGen struct {
	spec      Spec
	centroids []float32
}

func newFeatureGen(s Spec, rng *rand.Rand) *FeatureGen {
	g := &FeatureGen{spec: s, centroids: make([]float32, s.NumClasses*s.FeatDim)}
	for i := range g.centroids {
		g.centroids[i] = float32(rng.NormFloat64())
	}
	return g
}

// NumRows returns the node count (featstore.RowSource).
func (g *FeatureGen) NumRows() int64 { return g.spec.Nodes }

// Dim returns the feature dimension (featstore.RowSource).
func (g *FeatureGen) Dim() int { return g.spec.FeatDim }

// FillRow writes node v's feature row into dst[:Dim()]: its noise, then its
// class centroid added — the two steps Generate takes over the whole slab.
func (g *FeatureGen) FillRow(v int64, dst []float32) {
	g.spec.fillNoise(v, dst)
	g.addCentroid(v, dst)
}

// fillNoise writes node v's scaled Gaussian noise into dst[:FeatDim]. The
// product is rounded to float32 by an explicit conversion, so no build fuses
// it with FillRow's centroid addition: the slab, filled in two passes,
// equals FillRow under any GOAMD64.
func (s Spec) fillNoise(v int64, dst []float32) {
	sigma := float32(s.NoiseSigma)
	noise := noiseStream(mix64(hashBase(s.Seed, v, featSlot)))
	for j := range dst[:s.FeatDim] {
		f := float32(noise.normal())
		dst[j] = float32(f * sigma)
	}
}

// addCentroid adds node v's class centroid to dst[:Dim()].
func (g *FeatureGen) addCentroid(v int64, dst []float32) {
	dim := g.spec.FeatDim
	cls := int(g.spec.Class(v))
	for j, c := range g.centroids[cls*dim : (cls+1)*dim] {
		dst[j] = c + dst[j]
	}
}

// slabChunk is how many slab rows a claimant fills at a time.
const slabChunk = 256

// slabRows applies step to the slab rows of nodes [lo, hi).
func (d *Dataset) slabRows(lo, hi int, step func(v int64, row []float32)) {
	dim := int64(d.Spec.FeatDim)
	for v := int64(lo); v < int64(hi); v++ {
		step(v, d.Feat[v*dim:(v+1)*dim])
	}
}

// fillSlab applies step to every slab row. A row is a function of its node
// alone, so rows are shared out on the dense kernels' pool, slabChunk at a
// time.
func (d *Dataset) fillSlab(step func(v int64, row []float32)) {
	tensor.Fanout(tensor.Workers(), int(d.Spec.Nodes), slabChunk, func(_, lo, hi int) {
		d.slabRows(lo, hi, step)
	})
}

// generateSplits labels LabelRatio of the nodes and splits them into
// train/val/test.
func (d *Dataset) generateSplits(rng *rand.Rand) {
	s := d.Spec
	d.Labels = make([]int32, s.Nodes)
	for i := range d.Labels {
		d.Labels[i] = -1
	}
	nLabeled := int64(float64(s.Nodes) * s.LabelRatio)
	if nLabeled < int64(s.NumClasses) {
		nLabeled = min64(int64(s.NumClasses), s.Nodes)
	}
	ids := rng.Perm(int(s.Nodes))[:nLabeled]
	nTrain := int64(float64(nLabeled) * s.TrainFrac)
	nVal := int64(float64(nLabeled) * s.ValFrac)
	for i, id := range ids {
		v := int64(id)
		d.Labels[v] = s.Class(v)
		switch {
		case int64(i) < nTrain:
			d.Train = append(d.Train, v)
		case int64(i) < nTrain+nVal:
			d.Val = append(d.Val, v)
		default:
			d.Test = append(d.Test, v)
		}
	}
}

// NumEdgePairs returns the generated edge-pair count (Table II
// convention). For out-of-core datasets it sums the hash-defined degrees
// (O(Nodes), computed once).
func (d *Dataset) NumEdgePairs() int64 {
	var stored int64
	switch {
	case d.Graph != nil:
		stored = d.Graph.NumEdges()
	case d.Topo != nil:
		stored = d.Topo.NumEdges()
	default:
		return 0
	}
	if d.Spec.Undirected {
		return stored / 2
	}
	return stored
}

// affinePerm is a bijection over [0,n): x -> (a*x+b) mod n with gcd(a,n)=1.
type affinePerm struct{ a, inv, b, n int64 }

func newAffinePerm(n int64) affinePerm {
	a := int64(6364136223846793005 % uint64(n))
	if a <= 1 {
		a = 1
	}
	for gcd(a, n) != 1 {
		a++
	}
	return affinePerm{a: a, inv: modInverse(a, n), b: n / 3, n: n}
}

// apply maps x in [0, n) to its node ID. a and b are below n, so a*x+b
// does not overflow for n < 2^31.5.
func (p affinePerm) apply(x int64) int64 {
	return (p.a*x + p.b) % p.n
}

// invert maps a node ID back to its popularity slot: apply(invert(y)) == y.
func (p affinePerm) invert(y int64) int64 {
	x := (y - p.b) % p.n
	if x < 0 {
		x += p.n
	}
	return (p.inv % p.n) * (x % p.n) % p.n
}

// modInverse returns a^-1 mod n for gcd(a,n)=1 (extended Euclid).
func modInverse(a, n int64) int64 {
	t, newT := int64(0), int64(1)
	r, newR := n, a%n
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if t < 0 {
		t += n
	}
	return t
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
