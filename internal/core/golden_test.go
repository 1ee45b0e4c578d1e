package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wholegraph/internal/cache"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
)

// goldenBatches is what the read path produced at commit c94eaae, before
// Partitioned.Adj, the sort cutoff, the fused dedup scan and the slab cache:
// one FNV-1a hash per store over six batches' Neighborhood{Targets, Offsets,
// Neighbors, EdgePos} per hop and the unique.Result behind every block
// (NeighborSubID, DupCount, the gathered edge weights, and Unique as the next
// hop's targets and the gathered feature rows), then the cache's Hits and
// Misses. Fanout 5 sorts below the insertion-sort cutoff, fanout 40 above it.
// A different hash is a change of values, not of host cost.
var goldenBatches = map[string]uint64{
	"resident":  0x344f428fe231194d,
	"weighted":  0xed62ff35fc085c21,
	"pagedtopo": 0x344f428fe231194d,
	"pagedfeat": 0x7abcad5f21c29cca,
}

func goldenStore(t *testing.T, name string) (*sim.Machine, *Store) {
	t.Helper()
	return goldenStoreOn(t, goldenDataset(t, name == "weighted"), name)
}

func goldenDataset(t *testing.T, weighted bool) *dataset.Dataset {
	t.Helper()
	spec := dataset.OgbnProducts.Scaled(0.002)
	spec.Weighted = weighted
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// goldenStoreOn builds the named store flavour over ds on a fresh machine;
// a dataset is read-only to its stores and may back several.
func goldenStoreOn(t *testing.T, ds *dataset.Dataset, name string) (*sim.Machine, *Store) {
	t.Helper()
	var opts StoreOptions
	switch name {
	case "pagedtopo":
		opts = StoreOptions{PagedTopo: true, Topo: topostore.Options{PageEdges: 256}}
	case "pagedfeat":
		// The cache's unranked-source path: hits copied, misses delegated.
		opts = StoreOptions{PagedFeatures: true, Feat: featstore.Options{PageRows: 32}}
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s, err := NewStoreOpts(m, 0, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// hashBatches builds the golden batches on dev and hashes them. With planned
// set each loader is told its three builds in advance, so the second and
// third run ahead on the builder goroutine.
func hashBatches(t *testing.T, s *Store, dev *sim.Device, planned bool) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	fc, err := cache.NewDegreeCache(s.PG, dev, 300)
	if err != nil {
		t.Fatal(err)
	}
	for li, fanouts := range [][]int{{5, 5}, {40, 3}} {
		ld := NewLoader(s, dev, fanouts, int64(7+li)).WithCache(fc)
		lists := [][]int64{s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[32:48]}
		if planned {
			ld.Plan(lists)
		}
		for _, targets := range lists {
			b, _ := ld.BuildBatch(targets)
			slot := ld.faces[ld.next^1].body
			for _, nb := range slot.nbs {
				put(uint64(len(nb.Targets)))
				for _, v := range nb.Targets {
					put(uint64(v))
				}
				for _, v := range nb.Offsets {
					put(uint64(v))
				}
				for _, v := range nb.Neighbors {
					put(uint64(v))
				}
				for _, v := range nb.EdgePos {
					put(uint64(v))
				}
			}
			for _, blk := range b.Blocks {
				put(uint64(blk.NumNodes))
				for _, v := range blk.Col {
					put(uint64(v))
				}
				for _, v := range blk.DupCount {
					put(uint64(v))
				}
				for _, w := range blk.EdgeW {
					put(uint64(math.Float32bits(w)))
				}
			}
			for _, row := range slot.rows[:b.Feat.R] {
				put(uint64(row))
			}
		}
	}
	put(uint64(fc.Hits))
	put(uint64(fc.Misses))
	return h.Sum64()
}

func TestReadPathGolden(t *testing.T) {
	for _, name := range []string{"resident", "weighted", "pagedtopo", "pagedfeat"} {
		m, s := goldenStore(t, name)
		for _, planned := range []bool{false, true} {
			m.Reset() // clocks only: a paged store's residency carries over, and moves no value
			if got, want := hashBatches(t, s, m.Devs[1], planned), goldenBatches[name]; got != want {
				t.Errorf("%s (planned %v): batch hash %#016x, want %#016x", name, planned, got, want)
			}
		}
	}
}

// TestBuildBatchAllocFree: once both ring slots have seen the workload's
// shapes, building a batch through the cache allocates nothing.
func TestBuildBatchAllocFree(t *testing.T) {
	m, s := goldenStore(t, "resident")
	m.Reset()
	dev := m.Devs[1]
	fc, err := cache.NewDegreeCache(s.PG, dev, 300)
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(s, dev, []int{5, 40}, 3).WithCache(fc)
	targets := s.DS.Train[:16]
	for i := 0; i < 4; i++ {
		ld.BuildBatch(targets)
	}
	// 200 runs: AllocsPerRun counts the whole process, and about one
	// `go test -race` run in eight saw 20-39 stray objects in a 20-call
	// window (never with the test binary run directly). Averaged over 200
	// calls those floor to 0; a real per-call allocation still reads >= 1.
	if n := testing.AllocsPerRun(200, func() { ld.BuildBatch(targets) }); n != 0 {
		t.Errorf("BuildBatch allocated %v times per call", n)
	}
}
