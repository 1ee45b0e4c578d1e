package core

import (
	"math"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
)

func testPagedStore(t *testing.T) (*sim.Machine, *Store) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreOpts(m, 0, ds, StoreOptions{
		PagedFeatures: true,
		Feat:          featstore.Options{PageRows: 32},
		PagedTopo:     true,
		Topo:          topostore.Options{PageEdges: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// TestPagePrefetchNoTimeTravel mirrors TestPrefetchOverlapsCompute for
// the paged-store fault prefetch: PrefetchPages issues only copy-stream
// work, compute is never advanced by the prefetch itself, and a batch
// built afterwards never completes before the transfer's ready event.
func TestPagePrefetchNoTimeTravel(t *testing.T) {
	m, s := testPagedStore(t)
	m.Reset()
	dev := m.Devs[0]
	ld := NewLoader(s, dev, []int{4, 4}, 3)
	targets := s.DS.Train[:8]

	n := ld.PrefetchPages(targets, 64)
	if n == 0 {
		t.Fatal("prefetch faulted no pages on a cold store")
	}
	ready := dev.StreamNow(sim.StreamCopy)
	if ready <= 0 {
		t.Fatal("prefetch charged nothing to the copy stream")
	}
	if now := dev.StreamNow(sim.StreamCompute); now != 0 {
		t.Fatalf("prefetch advanced the compute stream to %g", now)
	}
	ld.BuildBatch(targets)
	if now := dev.Now(); now < ready {
		t.Errorf("batch finished at %g, before the prefetch transfer at %g", now, ready)
	}
	ts, fs := s.TopoStore(), s.FeatStore()
	if ts.Stats().PrefetchHits == 0 {
		t.Error("topology demand path recorded no prefetch hits")
	}
	if fs.Stats().PrefetchHits == 0 {
		t.Error("feature demand path recorded no prefetch hits")
	}
}

// TestPagePrefetchKeepsBatchBitIdentical: the same loader seed with and
// without prefetch produces bit-identical batches — prefetch touches no
// RNG and no sampler state, only cache residency and virtual time.
func TestPagePrefetchKeepsBatchBitIdentical(t *testing.T) {
	_, s1 := testPagedStore(t)
	_, s2 := testPagedStore(t)
	ld1 := NewLoader(s1, s1.Comm.Devs[0], []int{4, 4}, 9)
	ld2 := NewLoader(s2, s2.Comm.Devs[0], []int{4, 4}, 9)
	for it := 0; it < 4; it++ {
		targets := s1.DS.Train[it*8 : (it+1)*8]
		ld2.PrefetchPages(targets, 32)
		b1, _ := ld1.BuildBatch(targets)
		b2, _ := ld2.BuildBatch(targets)
		if len(b1.Feat.V) != len(b2.Feat.V) {
			t.Fatalf("iter %d: feature tensor shapes differ", it)
		}
		for i := range b1.Feat.V {
			if math.Float32bits(b1.Feat.V[i]) != math.Float32bits(b2.Feat.V[i]) {
				t.Fatalf("iter %d: feature %d differs under prefetch", it, i)
			}
		}
		for i := range b1.Labels {
			if b1.Labels[i] != b2.Labels[i] {
				t.Fatalf("iter %d: label %d differs", it, i)
			}
		}
		for bi := range b1.Blocks {
			x, y := b1.Blocks[bi], b2.Blocks[bi]
			if x.NumNodes != y.NumNodes || x.NumTargets != y.NumTargets {
				t.Fatalf("iter %d block %d: shape differs", it, bi)
			}
			for i := range x.Col {
				if x.Col[i] != y.Col[i] {
					t.Fatalf("iter %d block %d: column %d differs", it, bi, i)
				}
			}
		}
	}
	if s2.TopoStore().Stats().PrefetchHits == 0 {
		t.Error("prefetching loader recorded no topology prefetch hits")
	}
}

// TestNewStoreOptsValidation: out-of-core datasets demand both paged
// backends; weighted graphs reject paged topology.
func TestNewStoreOptsValidation(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	spec := dataset.OgbnProducts.Scaled(0.001)
	ooc, err := dataset.GenerateOutOfCore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStoreOpts(m, 0, ooc, StoreOptions{PagedFeatures: true}); err == nil {
		t.Error("out-of-core dataset accepted without paged topology")
	}
	if _, err := NewStoreOpts(m, 0, ooc, StoreOptions{PagedTopo: true}); err == nil {
		t.Error("out-of-core dataset accepted without paged features")
	}
	if _, err := NewStoreOpts(m, 0, ooc, StoreOptions{PagedFeatures: true, PagedTopo: true}); err != nil {
		t.Errorf("fully paged out-of-core store rejected: %v", err)
	}
	wspec := spec
	wspec.Weighted = true
	wds, err := dataset.Generate(wspec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStoreOpts(m, 0, wds, StoreOptions{PagedTopo: true}); err == nil {
		t.Error("weighted dataset accepted with paged topology")
	}
}

// TestPagePrefetchPredictionAllocFree: predicting pages uses loader-owned
// scratch, so a prefetch that finds its pages resident allocates nothing.
func TestPagePrefetchPredictionAllocFree(t *testing.T) {
	_, s := testPagedStore(t)
	ld := NewLoader(s, s.Comm.Devs[0], []int{4, 4}, 3)
	targets := s.DS.Train[:8]
	if ld.PrefetchPages(targets, 64) == 0 {
		t.Fatal("prefetch faulted no pages on a cold store")
	}
	if n := testing.AllocsPerRun(20, func() { ld.PrefetchPages(targets, 64) }); n != 0 {
		t.Errorf("warm PrefetchPages allocates %.0f times per call, want 0", n)
	}
}
