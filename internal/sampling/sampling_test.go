package sampling

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"wholegraph/internal/dataset"
	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

func TestRadixSort64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		radixSort64(keys)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("trial %d: radix[%d] = %d, want %d", trial, i, keys[i], want[i])
			}
		}
	}
}

func TestParallelSortStable(t *testing.T) {
	r := []int64{5, 3, 5, 3, 1}
	s, p := parallelSort(r)
	wantS := []int64{1, 3, 3, 5, 5}
	wantP := []int64{4, 1, 3, 0, 2} // stable: equal values keep index order
	for i := range wantS {
		if s[i] != wantS[i] || p[i] != wantP[i] {
			t.Fatalf("sort: s=%v p=%v", s, p)
		}
	}
}

// TestAlg1MatchesSequentialReference is the core correctness test: on the
// same random array r, the parallel path-doubling resolution must produce
// exactly the sequence the sequential robust Fisher-Yates produces.
func TestAlg1MatchesSequentialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(n-1)
		r := make([]int64, m)
		for i := range r {
			r[i] = int64(rng.Intn(n - i))
		}
		got := resolveWithoutReplacement(append([]int64(nil), r...), n)
		want := sequentialSampleRef(r, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d m=%d r=%v): got %v, want %v", trial, n, m, r, got, want)
			}
		}
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	f := func(seed int64, rawN, rawM uint16) bool {
		n := 1 + int(rawN)%500
		m := 1 + int(rawM)%500
		rng := rand.New(rand.NewSource(seed))
		res := SampleWithoutReplacement(m, n, rng)
		if m >= n && len(res) != n {
			return false
		}
		if m < n && len(res) != m {
			return false
		}
		seen := map[int64]bool{}
		for _, v := range res {
			if v < 0 || v >= int64(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A count at or below zero draws nothing and consumes no randomness.
	for _, c := range [][2]int{{-1, 10}, {3, -5}, {0, 10}, {5, 0}, {-2, -7}} {
		rng := rand.New(rand.NewSource(1))
		if res := SampleWithoutReplacement(c[0], c[1], rng); len(res) != 0 {
			t.Errorf("m=%d n=%d: drew %v, want nothing", c[0], c[1], res)
		}
		if rng.Int63() != rand.New(rand.NewSource(1)).Int63() {
			t.Errorf("m=%d n=%d: consumed randomness", c[0], c[1])
		}
	}
}

func TestSampleUniformity(t *testing.T) {
	// Chi-square test: each of n values should be selected with probability
	// m/n. With n=10, m=4 and 20000 trials, expected count per value is
	// 8000; the chi-square over 9 dof should stay below ~28 (p ~ 0.001).
	const n, m, trials = 10, 4, 20000
	rng := rand.New(rand.NewSource(3))
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		for _, v := range SampleWithoutReplacement(m, n, rng) {
			counts[v]++
		}
	}
	exp := float64(trials) * float64(m) / float64(n)
	var chi2 float64
	for _, c := range counts {
		chi2 += (c - exp) * (c - exp) / exp
	}
	if chi2 > 28 {
		t.Errorf("chi2 = %.1f over %d dof: sampling is not uniform (counts %v)", chi2, n-1, counts)
	}
}

func TestReservoirAndPermUniformity(t *testing.T) {
	const n, m, trials = 8, 3, 20000
	for name, fn := range map[string]func(int, int, *rand.Rand) []int64{
		"reservoir": reservoirSample,
		"perm":      permSample,
	} {
		rng := rand.New(rand.NewSource(4))
		counts := make([]float64, n)
		for i := 0; i < trials; i++ {
			res := fn(m, n, rng)
			seen := map[int64]bool{}
			for _, v := range res {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("%s produced invalid sample %v", name, res)
				}
				seen[v] = true
				counts[v]++
			}
		}
		exp := float64(trials) * float64(m) / float64(n)
		var chi2 float64
		for _, c := range counts {
			chi2 += (c - exp) * (c - exp) / exp
		}
		if chi2 > 25 {
			t.Errorf("%s: chi2 = %.1f, not uniform (%v)", name, chi2, counts)
		}
	}
}

func buildPartitioned(t *testing.T) (*sim.Machine, *dataset.Dataset, *graph.Partitioned) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	l, err := ds.HashLayout(comm.Size())
	if err != nil {
		t.Fatal(err)
	}
	pg, err := l.Map(comm, graph.Paging{})
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	return m, ds, pg
}

func TestGPUSamplerCorrectness(t *testing.T) {
	m, ds, pg := buildPartitioned(t)
	dev := m.Devs[0]
	s := NewGPUSampler(pg, dev, 7)

	targets := make([]graph.GlobalID, 0, 64)
	for v := int64(0); v < 64; v++ {
		targets = append(targets, pg.Owner[v])
	}
	const fanout = 5
	nb := s.SampleLayer(targets, fanout)

	if len(nb.Offsets) != len(targets)+1 {
		t.Fatalf("offsets len = %d", len(nb.Offsets))
	}
	for i, tg := range targets {
		got := nb.Neighbors[nb.Offsets[i]:nb.Offsets[i+1]]
		deg := ds.Graph.Degree(int64(i))
		wantLen := deg
		if wantLen > fanout {
			wantLen = fanout
		}
		if int64(len(got)) != wantLen {
			t.Fatalf("target %d: %d sampled, want %d (deg %d)", i, len(got), wantLen, deg)
		}
		// Every sampled neighbor must be a real neighbor. Sampling is
		// without replacement over list positions, so a neighbor may
		// appear at most as often as the (multi-)edge list contains it.
		avail := map[int64]int{}
		for _, w := range ds.Graph.Neighbors(int64(i)) {
			avail[w]++
		}
		for _, g := range got {
			orig := pg.Orig[g.Rank()][g.Local()]
			if avail[orig] == 0 {
				t.Fatalf("target %d: sampled %d more often than it appears in the list", i, orig)
			}
			avail[orig]--
		}
		_ = tg
	}
	if dev.Now() == 0 {
		t.Error("sampling charged nothing")
	}
	if dev.Stats.RemoteBytes == 0 {
		t.Error("sampling over a partitioned graph should touch remote memory")
	}
}

func TestGPUSamplerFanouts(t *testing.T) {
	m, _, pg := buildPartitioned(t)
	s := NewGPUSampler(pg, m.Devs[1], 9)
	targets := []graph.GlobalID{pg.Owner[0], pg.Owner[1]}
	layers := s.Fanouts(targets, []int{3, 3}, func(nb *Neighborhood) []graph.GlobalID {
		return nb.Neighbors
	})
	if len(layers) != 2 {
		t.Fatalf("layers = %d", len(layers))
	}
	if len(layers[1].Targets) != len(layers[0].Neighbors) {
		t.Error("second hop targets should be first hop neighbors")
	}
}

// TestSamplerRNGRestoreRepeatsDraws: the sampler's stream is math/rand's
// for its seed, and after RestoreRNG the draws made since SaveRNG repeat —
// the neighbourhoods a run-ahead build sampled and then discarded are
// sampled again, draw for draw.
func TestSamplerRNGRestoreRepeatsDraws(t *testing.T) {
	m, _, pg := buildPartitioned(t)
	s := NewGPUSampler(pg, m.Devs[1], 13)
	ref := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		if got, want := s.Rng.Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d: %d, math/rand %d", i, got, want)
		}
	}
	targets := make([]graph.GlobalID, 64)
	for v := range targets {
		targets[v] = pg.Owner[v]
	}
	var st RNGState
	s.SaveRNG(&st)
	first := append([]graph.GlobalID(nil), s.SampleLayer(targets, 3).Neighbors...)
	s.RestoreRNG(&st)
	again := s.SampleLayer(targets, 3).Neighbors
	if len(first) == 0 || !slices.Equal(first, again) {
		t.Fatalf("after RestoreRNG the layer sampled %d neighbours, %d before, or others", len(again), len(first))
	}
	next := s.Rng.Int63()
	s.RestoreRNG(&st)
	s.SampleLayer(targets, 3)
	if again := s.Rng.Int63(); again != next {
		t.Errorf("draw after the layer: %d, after restoring and repeating it %d", next, again)
	}
}

func TestCPUSamplerCorrectnessAndCosts(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int64, 256)
	for i := range targets {
		targets[i] = int64(i)
	}
	const fanout = 10

	dgl := NewCPUSampler(ds.Graph, m.CPUs[0], FlavorDGL, 1)
	nb := dgl.SampleLayer(targets, fanout)
	for i, tg := range targets {
		got := nb.Neighbors[nb.Offsets[i]:nb.Offsets[i+1]]
		deg := ds.Graph.Degree(tg)
		wantLen := deg
		if wantLen > fanout {
			wantLen = fanout
		}
		if int64(len(got)) != wantLen {
			t.Fatalf("target %d: %d sampled, want %d", tg, len(got), wantLen)
		}
		real := map[int64]bool{}
		for _, w := range ds.Graph.Neighbors(tg) {
			real[w] = true
		}
		for _, w := range got {
			if !real[w] {
				t.Fatalf("non-neighbor %d sampled for %d", w, tg)
			}
		}
	}
	dglCost := m.CPUs[0].Now()

	pyg := NewCPUSampler(ds.Graph, m.CPUs[0], FlavorPyG, 1)
	pyg.SampleLayer(targets, fanout)
	pygCost := m.CPUs[0].Now() - dglCost
	if pygCost <= dglCost {
		t.Errorf("PyG sampling (%g) should cost more than DGL (%g)", pygCost, dglCost)
	}
}

func TestGPUSamplerFasterThanCPU(t *testing.T) {
	// The headline claim: GPU sampling over distributed shared memory beats
	// host sampling by a wide margin at equal workloads.
	m, ds, pg := buildPartitioned(t)
	targets := make([]int64, 512)
	gts := make([]graph.GlobalID, 512)
	for i := range targets {
		targets[i] = int64(i)
		gts[i] = pg.Owner[int64(i)]
	}
	gpu := NewGPUSampler(pg, m.Devs[0], 1)
	gpu.SampleLayer(gts, 10)
	gpuTime := m.Devs[0].Now()

	cpu := NewCPUSampler(ds.Graph, m.CPUs[0], FlavorDGL, 1)
	cpu.SampleLayer(targets, 10)
	cpuTime := m.CPUs[0].Now()

	if gpuTime*2 > cpuTime {
		t.Errorf("GPU sampling %g s not clearly faster than CPU %g s", gpuTime, cpuTime)
	}
}

func TestSampleMGreaterEqualN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	res := SampleWithoutReplacement(10, 10, rng)
	if len(res) != 10 {
		t.Fatalf("m==n returned %d", len(res))
	}
	for i, v := range res {
		if v != int64(i) {
			t.Fatalf("m==n should be identity, got %v", res)
		}
	}
	if got := SampleWithoutReplacement(5, 3, rng); len(got) != 3 {
		t.Fatalf("m>n returned %d values", len(got))
	}
}
