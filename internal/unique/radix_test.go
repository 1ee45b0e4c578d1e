package unique

import (
	"math/rand"
	"sort"
	"testing"

	"wholegraph/internal/graph"
)

// refSortPairs is the comparison-sort reference the radix sort replaced:
// order by key, ties by original position.
func refSortPairs(pairs []sortPair) []sortPair {
	out := append([]sortPair(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].pos < out[j].pos
	})
	return out
}

func checkRadixMatchesRef(t *testing.T, name string, keys []graph.GlobalID) {
	t.Helper()
	pairs := make([]sortPair, len(keys))
	for i, k := range keys {
		pairs[i] = sortPair{key: k, pos: int32(i)}
	}
	want := refSortPairs(pairs)
	got := radixSortPairs(pairs, make([]sortPair, len(pairs)))
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestRadixSortPairsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		keys := make([]graph.GlobalID, n)
		for i := range keys {
			// Full 64-bit range, including realistic rank<<48 layouts.
			keys[i] = graph.GlobalID(rng.Uint64())
		}
		checkRadixMatchesRef(t, "random", keys)
	}
}

func TestRadixSortPairsAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))

	allEqual := make([]graph.GlobalID, 777)
	for i := range allEqual {
		allEqual[i] = 0xdeadbeef
	}
	checkRadixMatchesRef(t, "all-equal", allEqual)

	sorted := make([]graph.GlobalID, 1000)
	for i := range sorted {
		sorted[i] = graph.GlobalID(i * 3)
	}
	checkRadixMatchesRef(t, "already-sorted", sorted)

	reversed := make([]graph.GlobalID, 1000)
	for i := range reversed {
		reversed[i] = graph.GlobalID(3000 - i*3)
	}
	checkRadixMatchesRef(t, "reverse-sorted", reversed)

	// Keys differing only in the top byte: every low pass is skipped as
	// uniform, the final pass does all the work.
	highBit := make([]graph.GlobalID, 512)
	for i := range highBit {
		highBit[i] = graph.GlobalID(uint64(rng.Intn(200)) << 56)
	}
	checkRadixMatchesRef(t, "high-bit-only", highBit)

	// Keys differing only in the bottom byte.
	lowBit := make([]graph.GlobalID, 512)
	for i := range lowBit {
		lowBit[i] = 0xaa00 | graph.GlobalID(rng.Intn(256))
	}
	checkRadixMatchesRef(t, "low-bit-only", lowBit)

	checkRadixMatchesRef(t, "empty", nil)
	checkRadixMatchesRef(t, "single", []graph.GlobalID{42})
}

// TestRadixSortPairsStability verifies that equal keys keep their input
// (position) order without pos ever being compared: duplicate-heavy input
// where the tie-break is the whole point.
func TestRadixSortPairsStability(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := make([]graph.GlobalID, 4096)
	for i := range keys {
		keys[i] = graph.GlobalID(rng.Intn(16)) // ~256 duplicates per key
	}
	pairs := make([]sortPair, len(keys))
	for i, k := range keys {
		pairs[i] = sortPair{key: k, pos: int32(i)}
	}
	got := radixSortPairs(pairs, make([]sortPair, len(pairs)))
	for i := 1; i < len(got); i++ {
		if got[i-1].key == got[i].key && got[i-1].pos >= got[i].pos {
			t.Fatalf("stability violated at %d: pos %d before %d for key %v",
				i, got[i-1].pos, got[i].pos, got[i].key)
		}
	}
}

// TestDeduperReuseMatchesFresh verifies that a warm Deduper (including one
// shrinking from a larger earlier input) produces byte-identical results to
// the one-shot AppendUnique, across random workloads.
func TestDeduperReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ded := NewDeduper()
	for trial := 0; trial < 40; trial++ {
		nt := 1 + rng.Intn(300)
		nn := rng.Intn(5000)
		targets := make([]graph.GlobalID, nt)
		seen := map[graph.GlobalID]bool{}
		for i := range targets {
			for {
				g := graph.MakeGlobalID(rng.Intn(8), int64(rng.Intn(100000)))
				if !seen[g] {
					seen[g] = true
					targets[i] = g
					break
				}
			}
		}
		neighbors := make([]graph.GlobalID, nn)
		for i := range neighbors {
			neighbors[i] = graph.MakeGlobalID(rng.Intn(8), int64(rng.Intn(20000)))
		}
		fresh := AppendUnique(nil, targets, neighbors)
		warm := ded.AppendUnique(nil, targets, neighbors)
		if len(fresh.Unique) != len(warm.Unique) || fresh.NumTargets != warm.NumTargets {
			t.Fatalf("trial %d: shape mismatch: %d/%d unique, %d/%d targets",
				trial, len(fresh.Unique), len(warm.Unique), fresh.NumTargets, warm.NumTargets)
		}
		for i := range fresh.Unique {
			if fresh.Unique[i] != warm.Unique[i] {
				t.Fatalf("trial %d: Unique[%d] = %v, want %v", trial, i, warm.Unique[i], fresh.Unique[i])
			}
		}
		for i := range fresh.NeighborSubID {
			if fresh.NeighborSubID[i] != warm.NeighborSubID[i] {
				t.Fatalf("trial %d: NeighborSubID[%d] = %d, want %d", trial, i, warm.NeighborSubID[i], fresh.NeighborSubID[i])
			}
		}
		for i := range fresh.DupCount {
			if fresh.DupCount[i] != warm.DupCount[i] {
				t.Fatalf("trial %d: DupCount[%d] = %d, want %d", trial, i, warm.DupCount[i], fresh.DupCount[i])
			}
		}
	}
}

// TestDeduperSteadyStateAllocs locks in the zero-allocation steady state of
// a warm Deduper.
func TestDeduperSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	targets := make([]graph.GlobalID, 256)
	for i := range targets {
		targets[i] = graph.MakeGlobalID(i%8, int64(50000+i))
	}
	neighbors := make([]graph.GlobalID, 256*30)
	for i := range neighbors {
		neighbors[i] = graph.MakeGlobalID(rng.Intn(8), int64(rng.Intn(10000)))
	}
	ded := NewDeduper()
	ded.AppendUnique(nil, targets, neighbors) // warm up
	if n := testing.AllocsPerRun(20, func() {
		ded.AppendUnique(nil, targets, neighbors)
	}); n > 0 {
		t.Fatalf("warm Deduper allocated %.1f times per run, want 0", n)
	}
}
