package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
	"wholegraph/internal/wholemem"
)

// generateGolden holds FNV-1a hashes of every array the generators build,
// recorded at commit d1dc5a2, before dataset set-up ran on more than one
// goroutine per stage: the CSR, the feature slab's bits, the labels, the
// three splits and the class centroids of a Generate and a
// MaterializeOutOfCore; the row pointer, column, feature and edge-weight
// shards of an eight-rank hash layout.
var generateGolden = map[string]uint64{
	"products/RowPtr":         0x0b491e5d1c9e071e,
	"products/Col":            0x724ca7f9d46a7651,
	"products/Feat":           0xedfd97e7b9020d1e,
	"products/Labels":         0xda104d52e6bab692,
	"products/Train":          0x823ee5c743958c20,
	"products/Val":            0xd657c4c3d59a558f,
	"products/Test":           0x31048f9d1e766e3e,
	"products/centroids":      0x6e274d87894007e0,
	"products/layout8/RowPtr": 0x68ff1c00a7eed07a,
	"products/layout8/Col":    0x1eecc02ef426fc94,
	"products/layout8/Feat":   0xb8f2023631c7422e,
	"weighted/layout8/EdgeW":  0xad4eff0c91bc9ae4,
	"papers/RowPtr":           0xfa92ac698091e074,
	"papers/Col":              0x5620eec136cb0fdb,
	"papers/Feat":             0x770f648489746a2d,
	"papers/Labels":           0xf8e0a32142099d1d,
	"papers/Train":            0x0dbc3b50b62ab66d,
	"papers/Val":              0xf7674a65419ad9de,
	"papers/Test":             0x4fbb9613beeab9c1,
	"papers/centroids":        0x239000c16e1fa113,
	"papers-ooc/RowPtr":       0x90b57116cc53a2f7,
	"papers-ooc/Col":          0xb2e3d2578d4fc00e,
	"papers-ooc/Feat":         0xd6b289165134b6ff,
	"papers-ooc/Labels":       0x19f0375907d9b8f5,
	"papers-ooc/Train":        0x49e1ff02a46a5e10,
	"papers-ooc/Val":          0x62bef65f9ae829da,
	"papers-ooc/Test":         0xe5edfc718533cdc5,
	"papers-ooc/centroids":    0xd1d48c5dcbf60521,
}

// hashOf returns the FNV-1a hash of the little-endian bytes of xs, every
// float by its bits.
func hashOf[T int32 | int64 | uint64 | float32](xs []T) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, xs) // a hash.Hash write never fails
	return h.Sum64()
}

// shardsHash hashes a distributed table's shards in rank order.
func shardsHash[T int64 | uint64 | float32](m *wholemem.Memory[T]) uint64 {
	var all []T
	for r := 0; r < m.Comm().Size(); r++ {
		all = append(all, m.Shard(r)...)
	}
	return hashOf(all)
}

// hashDataset adds the hashes of d's arrays to got under name.
func hashDataset(got map[string]uint64, name string, d *Dataset) {
	got[name+"/RowPtr"] = hashOf(d.Graph.RowPtr)
	got[name+"/Col"] = hashOf(d.Graph.Col)
	got[name+"/Feat"] = hashOf(d.Feat)
	got[name+"/Labels"] = hashOf(d.Labels)
	got[name+"/Train"] = hashOf(d.Train)
	got[name+"/Val"] = hashOf(d.Val)
	got[name+"/Test"] = hashOf(d.Test)
	got[name+"/centroids"] = hashOf(d.Gen.centroids)
}

// mapLayout places d's eight-rank hash layout on one DGX node's devices.
func mapLayout(t *testing.T, d *Dataset) *graph.Partitioned {
	t.Helper()
	l, err := d.HashLayout(8)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := wholemem.NewComm(sim.NewMachine(sim.DGXA100(1)).Devs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Map(comm, graph.Paging{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenHashes generates every golden case and hashes its arrays.
func goldenHashes(t *testing.T) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	gen := func(f func(Spec) (*Dataset, error), s Spec) *Dataset {
		d, err := f(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	products := gen(Generate, OgbnProducts.Scaled(1e-3))
	hashDataset(got, "products", products)
	p := mapLayout(t, products)
	got["products/layout8/RowPtr"] = shardsHash(p.RowPtr)
	got["products/layout8/Col"] = shardsHash(p.Col)
	got["products/layout8/Feat"] = shardsHash(p.Feat)

	weighted := OgbnProducts.Scaled(1e-3)
	weighted.Weighted = true
	got["weighted/layout8/EdgeW"] = shardsHash(mapLayout(t, gen(Generate, weighted)).EdgeW)

	papers := OgbnPapers100M.Scaled(1e-4)
	hashDataset(got, "papers", gen(Generate, papers))
	hashDataset(got, "papers-ooc", gen(MaterializeOutOfCore, papers))
	return got
}

// TestGenerateGolden pins every array Generate, MaterializeOutOfCore and
// the hash layout build to the values recorded when each ran on one
// goroutine, at one, two and four dense-kernel workers; and checks that no
// goroutine a generator starts outlives it.
func TestGenerateGolden(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	// The dense kernels' pool starts once and stays: start it first, so
	// that every goroutine counted after a generator is one it left behind.
	tensor.Fanout(2, 2, 1, func(int, int, int) {})
	for _, w := range []int{1, 2, 4} {
		tensor.SetWorkers(w)
		before := runtime.NumGoroutine()
		got := goldenHashes(t)
		for name, want := range generateGolden {
			if got[name] != want {
				t.Errorf("workers=%d: %q: %#016x, want %#016x", w, name, got[name], want)
			}
		}
		if len(got) != len(generateGolden) {
			t.Errorf("workers=%d: %d hashes, golden has %d", w, len(got), len(generateGolden))
		}
		if t.Failed() {
			for name, h := range got {
				t.Logf("%q: %#016x,", name, h)
			}
			t.FailNow()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before the generators, %d after", w, before, after)
		}
	}
}
