package core

import (
	"math/rand"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
)

func testStore(t *testing.T) (*sim.Machine, *Store) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(m, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestNewStoreSetupCost(t *testing.T) {
	_, s := testStore(t)
	// Paper §III-B: setting up the shared memory takes tens to ~200 ms.
	if st := s.SetupTime(); st <= 0 || st > 0.5 {
		t.Errorf("setup time = %g s, want (0, 0.5]", st)
	}
}

func TestBuildBatchStructure(t *testing.T) {
	m, s := testStore(t)
	m.Reset()
	ld := NewLoader(s, m.Devs[0], []int{4, 4, 4}, 1)
	targets := s.DS.Train[:16]
	b, tm := ld.BuildBatch(targets)

	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.BatchSize() != 16 {
		t.Fatalf("batch size = %d", b.BatchSize())
	}
	if len(b.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(b.Blocks))
	}
	// Input sets shrink from inner to outer block.
	if b.Blocks[0].NumNodes < b.Blocks[2].NumNodes {
		t.Errorf("block 0 (%d nodes) should be the largest (block 2 has %d)",
			b.Blocks[0].NumNodes, b.Blocks[2].NumNodes)
	}
	// Labels match the dataset.
	for i, v := range targets {
		if b.Labels[i] != s.DS.Labels[v] {
			t.Fatalf("label %d mismatch", i)
		}
	}
	if tm.Sample <= 0 || tm.Gather <= 0 {
		t.Errorf("timing not recorded: %+v", tm)
	}
	if tm.Train != 0 {
		t.Errorf("loader should not record training time: %+v", tm)
	}
}

func TestBuildBatchGathersCorrectFeatures(t *testing.T) {
	m, s := testStore(t)
	m.Reset()
	ld := NewLoader(s, m.Devs[2], []int{3}, 2)
	targets := s.DS.Train[:8]
	b, _ := ld.BuildBatch(targets)

	// The first batch-size rows of Feat are the targets' own features
	// (targets lead the unique list).
	dim := s.DS.Spec.FeatDim
	for i, v := range targets {
		for j := 0; j < dim; j++ {
			want := s.DS.Feat[v*int64(dim)+int64(j)]
			if b.Feat.At(i, j) != want {
				t.Fatalf("feature (%d,%d) = %g, want %g", i, j, b.Feat.At(i, j), want)
			}
		}
	}
}

func TestBuildBatchBlockEdgesAreRealEdges(t *testing.T) {
	m, s := testStore(t)
	m.Reset()
	ld := NewLoader(s, m.Devs[0], []int{5, 5}, 3)
	targets := s.DS.Train[:8]
	b, _ := ld.BuildBatch(targets)

	// Reconstruct the unique node lists per hop by walking the loader
	// again is complex; instead check the inner block's edges: each
	// column ID must be < NumNodes and rows non-empty only when the
	// original node has neighbors.
	for l, blk := range b.Blocks {
		if err := blk.Validate(); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
	}
}

func TestEpochBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := make([]int64, 103)
	for i := range train {
		train[i] = int64(i)
	}
	var ids []int64
	batches := EpochBatchesInto(nil, &ids, train, 25, rng)
	if len(batches) != 5 {
		t.Fatalf("batches = %d, want 5", len(batches))
	}
	if len(batches[4]) != 3 {
		t.Fatalf("tail batch = %d, want 3", len(batches[4]))
	}
	seen := map[int64]bool{}
	for _, b := range batches {
		for _, v := range b {
			if seen[v] {
				t.Fatalf("node %d in two batches", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 103 {
		t.Fatalf("covered %d nodes", len(seen))
	}
	// Shuffled: not identity order (astronomically unlikely).
	identity := true
	for i, v := range batches[0] {
		if v != int64(i) {
			identity = false
			break
		}
	}
	if identity {
		t.Error("EpochBatchesInto did not shuffle")
	}
}

func TestShardTraining(t *testing.T) {
	train := make([]int64, 10)
	for i := range train {
		train[i] = int64(i)
	}
	shards := ShardTraining(train, 4)
	if len(shards) != 4 {
		t.Fatalf("shards = %d", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if total != 10 {
		t.Fatalf("sharded %d of 10", total)
	}
	if len(shards[0]) != 3 || len(shards[1]) != 3 || len(shards[2]) != 2 || len(shards[3]) != 2 {
		t.Errorf("shard sizes uneven beyond round-robin: %v", shards)
	}
}

func TestLoaderDeterministicWithSeed(t *testing.T) {
	m, s := testStore(t)
	m.Reset()
	a := NewLoader(s, m.Devs[0], []int{4, 4}, 7)
	b := NewLoader(s, m.Devs[1], []int{4, 4}, 7)
	targets := s.DS.Train[:8]
	ba, _ := a.BuildBatch(targets)
	bb, _ := b.BuildBatch(targets)
	if ba.Blocks[0].NumNodes != bb.Blocks[0].NumNodes {
		t.Error("same seed produced different batches")
	}
	for i := range ba.Feat.V {
		if ba.Feat.V[i] != bb.Feat.V[i] {
			t.Fatal("same seed produced different features")
		}
	}
}

func TestWeightedStoreGathersEdgeWeights(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = true
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(m, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.PG.EdgeW == nil {
		t.Fatal("weighted spec did not attach edge weights")
	}
	m.Reset()
	ld := NewLoader(s, m.Devs[0], []int{4, 4}, 1)
	b, _ := ld.BuildBatch(ds.Train[:8])
	for l, blk := range b.Blocks {
		if blk.EdgeW == nil {
			t.Fatalf("block %d missing edge weights", l)
		}
		if int64(len(blk.EdgeW)) != blk.NumEdges() {
			t.Fatalf("block %d: %d weights for %d edges", l, len(blk.EdgeW), blk.NumEdges())
		}
		for _, w := range blk.EdgeW {
			if w < 0.5 || w >= 1.5 {
				t.Fatalf("edge weight %g outside HashEdgeWeight range", w)
			}
		}
		if err := blk.Validate(); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeWeightValuesMatchHashFunction(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	spec := dataset.OgbnProducts.Scaled(0.0005)
	spec.Weighted = true
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(m, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	pg := s.PG
	// Every stored weight equals HashEdgeWeight(src, dst).
	for v := int64(0); v < min(ds.Graph.N, 100); v++ {
		_, e0, _ := pg.Adj(pg.Owner[v])
		for k, w := range ds.Graph.Neighbors(v) {
			got := pg.EdgeW.Get(e0 + int64(k))
			want := graph.HashEdgeWeight(v, w)
			if got != want {
				t.Fatalf("edge (%d,%d): stored %g, want %g", v, w, got, want)
			}
		}
	}
}
