package unique

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
)

func gid(r int, l int64) graph.GlobalID { return graph.MakeGlobalID(r, l) }

func TestAppendUniqueSmall(t *testing.T) {
	// Mirrors Figure 5: targets T0..T3, neighbors with duplicates and
	// overlaps with targets.
	targets := []graph.GlobalID{gid(0, 0), gid(0, 1), gid(1, 0), gid(1, 1)}
	neighbors := []graph.GlobalID{
		gid(2, 5), gid(0, 1), gid(2, 5), gid(3, 7), gid(1, 0),
	}
	res := AppendUnique(nil, targets, neighbors)

	if res.NumTargets != 4 {
		t.Fatalf("NumTargets = %d", res.NumTargets)
	}
	// Targets keep their order at the front.
	for i, tg := range targets {
		if res.Unique[i] != tg {
			t.Fatalf("target %d moved: %v", i, res.Unique[i])
		}
	}
	// Unique contains exactly targets + {2:5, 3:7}.
	if len(res.Unique) != 6 {
		t.Fatalf("unique size = %d, want 6: %v", len(res.Unique), res.Unique)
	}
	// Neighbor positions map to consistent IDs.
	if res.NeighborSubID[0] != res.NeighborSubID[2] {
		t.Error("duplicate neighbor got two IDs")
	}
	if res.NeighborSubID[1] != 1 {
		t.Errorf("neighbor equal to target T1 should map to 1, got %d", res.NeighborSubID[1])
	}
	if res.NeighborSubID[4] != 2 {
		t.Errorf("neighbor equal to target T2 should map to 2, got %d", res.NeighborSubID[4])
	}
	for i, id := range res.NeighborSubID {
		if res.Unique[id] != neighbors[i] {
			t.Fatalf("NeighborSubID[%d] = %d points at %v, want %v", i, id, res.Unique[id], neighbors[i])
		}
	}
	// Duplicate counts: 2:5 sampled twice, targets 0:1 and 1:0 once each,
	// 3:7 once, others zero.
	wantDup := map[graph.GlobalID]int32{
		gid(2, 5): 2, gid(0, 1): 1, gid(1, 0): 1, gid(3, 7): 1,
	}
	for id, u := range res.Unique {
		if res.DupCount[id] != wantDup[u] {
			t.Errorf("dupcount[%v] = %d, want %d", u, res.DupCount[id], wantDup[u])
		}
	}
}

func TestAppendUniqueNoNeighbors(t *testing.T) {
	targets := []graph.GlobalID{gid(0, 3), gid(1, 4)}
	res := AppendUnique(nil, targets, nil)
	if len(res.Unique) != 2 || res.NumTargets != 2 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestAppendUniquePanicsOnDuplicateTargets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate targets did not panic")
		}
	}()
	AppendUnique(nil, []graph.GlobalID{gid(0, 1), gid(0, 1)}, nil)
}

func TestAppendUniqueCharges(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	d := m.Devs[0]
	AppendUnique(d, []graph.GlobalID{gid(0, 0)}, []graph.GlobalID{gid(0, 1), gid(0, 1)})
	if d.Now() == 0 || d.Stats.Kernels != 1 {
		t.Errorf("charging wrong: now=%g kernels=%d", d.Now(), d.Stats.Kernels)
	}
}

func TestAppendUniqueProperties(t *testing.T) {
	f := func(seed int64, nT, nN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nTargets := 1 + int(nT)%50
		nNeighbors := int(nN) % 200

		// Distinct targets via a permutation.
		perm := rng.Perm(1000)
		targets := make([]graph.GlobalID, nTargets)
		for i := range targets {
			targets[i] = gid(perm[i]%8, int64(perm[i]))
		}
		neighbors := make([]graph.GlobalID, nNeighbors)
		for i := range neighbors {
			v := rng.Intn(1000)
			neighbors[i] = gid(v%8, int64(v))
		}
		res := AppendUnique(nil, targets, neighbors)

		// (1) Unique really is duplicate-free.
		seen := map[graph.GlobalID]bool{}
		for _, u := range res.Unique {
			if seen[u] {
				return false
			}
			seen[u] = true
		}
		// (2) Targets form the prefix in order.
		for i, tg := range targets {
			if res.Unique[i] != tg {
				return false
			}
		}
		// (3) Every neighbor maps to its own value.
		for i, id := range res.NeighborSubID {
			if id < 0 || int(id) >= len(res.Unique) || res.Unique[id] != neighbors[i] {
				return false
			}
		}
		// (4) Every unique entry is a target or appeared as a neighbor.
		appeared := map[graph.GlobalID]bool{}
		for _, n := range neighbors {
			appeared[n] = true
		}
		for i, u := range res.Unique {
			if i >= res.NumTargets && !appeared[u] {
				return false
			}
		}
		// (5) Duplicate counts total the neighbor list length.
		var total int32
		for _, c := range res.DupCount {
			total += c
		}
		return int(total) == nNeighbors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAppendUniqueLarge(t *testing.T) {
	// Forces multiple buckets and heavy duplication.
	rng := rand.New(rand.NewSource(42))
	targets := make([]graph.GlobalID, 500)
	for i := range targets {
		targets[i] = gid(i%8, int64(10000+i))
	}
	neighbors := make([]graph.GlobalID, 20000)
	for i := range neighbors {
		v := rng.Intn(2000)
		neighbors[i] = gid(v%8, int64(v))
	}
	res := AppendUnique(nil, targets, neighbors)
	if len(res.Unique) > 500+2000 {
		t.Fatalf("unique too large: %d", len(res.Unique))
	}
	for i, id := range res.NeighborSubID {
		if res.Unique[id] != neighbors[i] {
			t.Fatalf("mapping broken at %d", i)
		}
	}
}

// bucketOrderRef numbers the new neighbours the way the GPU op is specified:
// count them per bucketSlots-slot bucket, exclusive prefix sum over the
// buckets, then number each bucket's entries from its offset in slot order.
// It returns the unique list that numbering produces.
func bucketOrderRef(targets, neighbors []graph.GlobalID) []graph.GlobalID {
	size := tableSize(len(targets) + len(neighbors))
	tb := &table{keys: make([]uint64, size), vals: make([]int32, size), mask: uint64(size - 1)}
	for i, g := range targets {
		tb.insert(uint64(g), int32(i))
	}
	for _, g := range neighbors {
		tb.insert(uint64(g), -1)
	}
	isNew := func(s int) bool { return tb.keys[s] != emptySlot && tb.vals[s] == -1 }
	nBuckets := size / bucketSlots
	offset := make([]int, nBuckets+1)
	for b := 0; b < nBuckets; b++ {
		offset[b+1] = offset[b]
		for s := b * bucketSlots; s < (b+1)*bucketSlots; s++ {
			if isNew(s) {
				offset[b+1]++
			}
		}
	}
	out := append(make([]graph.GlobalID, 0, len(targets)+offset[nBuckets]), targets...)
	out = out[:len(targets)+offset[nBuckets]]
	for b := 0; b < nBuckets; b++ {
		next := len(targets) + offset[b]
		for s := b * bucketSlots; s < (b+1)*bucketSlots; s++ {
			if isNew(s) {
				out[next] = graph.GlobalID(^tb.keys[s])
				next++
			}
		}
	}
	return out
}

// TestSingleScanMatchesBucketPrefixSum: the one-pass assignment is the
// bucket-contiguous order of the three-scan formulation it replaced, from a
// one-bucket table to sixty-four buckets.
func TestSingleScanMatchesBucketPrefixSum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var d Deduper
	for _, n := range []int{0, 1, 5, 60, 200, 1000, 4000} {
		for trial := 0; trial < 5; trial++ {
			span := int64(1 + n/(1+trial))
			targets := make([]graph.GlobalID, 0, 16)
			seen := map[graph.GlobalID]bool{}
			for len(targets) < 16 {
				g := graph.MakeGlobalID(rng.Intn(8), rng.Int63n(span+16))
				if !seen[g] {
					seen[g] = true
					targets = append(targets, g)
				}
			}
			neighbors := make([]graph.GlobalID, n)
			for i := range neighbors {
				neighbors[i] = graph.MakeGlobalID(rng.Intn(8), rng.Int63n(span+16))
			}
			got := d.AppendUnique(nil, targets, neighbors).Unique
			if want := bucketOrderRef(targets, neighbors); !slices.Equal(got, want) {
				t.Fatalf("n=%d trial %d: unique order diverges from the bucket prefix sum", n, trial)
			}
		}
	}
}
