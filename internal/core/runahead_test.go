package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wholegraph/internal/cache"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
)

// buildRecord is everything one BuildBatch call leaves behind that a caller
// can observe: the batch, its Timing, and both stream clocks afterwards.
type buildRecord struct {
	batch         uint64
	tm            Timing
	compute, copy float64
}

// hashBatch reads every value of a batch into one FNV-style hash, a word at
// a time (the stress runs under the race detector, where bytes cost).
func hashBatch(b *gnn.Batch) uint64 {
	h := uint64(14695981039346656037)
	put := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, blk := range b.Blocks {
		put(uint64(blk.NumTargets))
		put(uint64(blk.NumNodes))
		for _, v := range blk.RowPtr {
			put(uint64(v))
		}
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
	put(uint64(b.Feat.R))
	for _, v := range b.Feat.V {
		put(uint64(math.Float32bits(v)))
	}
	for _, l := range b.Labels {
		put(uint64(l))
	}
	return h
}

// runBuilds drives nine builds over three target lists (so the list wraps,
// as a short shard's does in the epoch loop) the way the sequential trainer
// does: build, read the whole batch, charge a step's worth of compute. With
// planned set the builds are announced first. It returns what every call
// left behind plus the device's final Stats and trace.
func runBuilds(t *testing.T, ds *dataset.Dataset, name string, cached, planned bool) ([]buildRecord, sim.DeviceStats, []sim.Interval, [2]int64) {
	t.Helper()
	m, s := goldenStoreOn(t, ds, name)
	m.Reset()
	dev := m.Devs[1]
	dev.Tracing = true
	ld := NewLoader(s, dev, []int{5, 40}, 11)
	var fc *cache.FeatureCache
	if cached {
		var err error
		if fc, err = cache.NewDegreeCache(s.PG, dev, 300); err != nil {
			t.Fatal(err)
		}
		ld.WithCache(fc)
	}
	lists := make([][]int64, 9)
	for i := range lists {
		lists[i] = s.DS.Train[16*(i%3) : 16*(i%3)+16]
	}
	if planned {
		ld.Plan(lists)
	}
	var recs []buildRecord
	for _, targets := range lists {
		b, tm := ld.BuildBatch(targets)
		// The builder is already filling the other slot: reading this one
		// in full is what the race detector checks the two against.
		recs = append(recs, buildRecord{hashBatch(b), tm, dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy)})
		dev.Gemm(b.Feat.R, 64, b.Feat.C, "step")
	}
	var counts [2]int64
	if fc != nil {
		counts = [2]int64{fc.Hits, fc.Misses}
	}
	return recs, dev.Stats, dev.Trace(), counts
}

// TestPlannedEqualsUnplanned is the pin of run-ahead as a pure refactor of
// values: announcing the builds changes nothing a caller can observe — batch
// contents, Timing, either stream clock after every call, the device's
// Stats, its trace intervals, the cache's counters — on resident, weighted,
// cached and paged stores. scripts/check.sh race-stresses it.
func TestPlannedEqualsUnplanned(t *testing.T) {
	plain, weighted := goldenDataset(t, false), goldenDataset(t, true)
	for _, tc := range []struct {
		store  string
		cached bool
	}{
		{"resident", false}, {"resident", true}, {"weighted", false},
		{"pagedtopo", false}, {"pagedfeat", false}, {"pagedfeat", true},
	} {
		ds := plain
		if tc.store == "weighted" {
			ds = weighted
		}
		recs, stats, trace, counts := runBuilds(t, ds, tc.store, tc.cached, false)
		pRecs, pStats, pTrace, pCounts := runBuilds(t, ds, tc.store, tc.cached, true)
		name := tc.store
		if tc.cached {
			name += "+cache"
		}
		for i := range recs {
			if recs[i] != pRecs[i] {
				t.Errorf("%s build %d: unplanned %+v, planned %+v", name, i, recs[i], pRecs[i])
			}
		}
		if recs[0].tm.Sample <= 0 || recs[0].tm.Gather <= 0 {
			t.Errorf("%s: Timing not recorded: %+v", name, recs[0].tm)
		}
		if stats != pStats {
			t.Errorf("%s: DeviceStats unplanned %+v, planned %+v", name, stats, pStats)
		}
		if !reflect.DeepEqual(trace, pTrace) {
			t.Errorf("%s: trace intervals differ (%d unplanned, %d planned)", name, len(trace), len(pTrace))
		}
		if counts != pCounts {
			t.Errorf("%s: cache hits/misses unplanned %v, planned %v", name, counts, pCounts)
		}
	}
}

func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want a message containing %q", what, r, want)
		}
	}()
	fn()
}

// TestOutOfPlanCallsPanic: while a plan is open the only build allowed is
// the BuildBatch of its head — on stores that run ahead and on stores that
// cannot alike.
func TestOutOfPlanCallsPanic(t *testing.T) {
	for _, name := range []string{"resident", "pagedtopo"} {
		m, s := goldenStore(t, name)
		m.Reset()
		a, b, c := s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[32:48]
		ld := NewLoader(s, m.Devs[0], []int{5, 5}, 1)
		ld.Plan([][]int64{a, b, c})
		mustPanic(t, name+": a second Plan", "planned builds outstanding", func() { ld.Plan([][]int64{a}) })
		mustPanic(t, name+": Prefetch under a plan", "plan open", func() { ld.Prefetch(a) })
		mustPanic(t, name+": BuildBatch of the wrong list", "out of plan", func() { ld.BuildBatch(b) })
		ld.BuildBatch(a)
		mustPanic(t, name+": BuildBatch of a skipped-to list", "out of plan", func() { ld.BuildBatch(c) })
		ld.BuildBatch(b)
		ld.BuildBatch(c)
		// Drained: anything goes again.
		ld.BuildBatch(a)
		ld.Prefetch(b)
		mustPanic(t, name+": Plan over a pending prefetch", "prefetch pending", func() { ld.Plan([][]int64{a}) })
		ld.Collect()
		ld.Plan(nil)
		ld.BuildBatch(c)
	}
}

// builderGoroutines counts live goroutines running the loader's run-ahead
// body.
func builderGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("core.(*Loader).startAhead.func1"))
}

// waitNoBuilders fails unless every builder goroutine exits shortly: one is
// never parked, so it is gone as soon as its build is.
func waitNoBuilders(t *testing.T, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for builderGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d builder goroutine(s) still alive", when, builderGoroutines())
		}
		runtime.Gosched()
	}
}

// TestBuilderPanicSurfacesAtJoin: a build that panics on the builder
// goroutine re-raises, with its own value, in the BuildBatch call that
// asked for that batch, and leaves no goroutine behind.
func TestBuilderPanicSurfacesAtJoin(t *testing.T) {
	m, s := goldenStore(t, "resident")
	m.Reset()
	good := s.DS.Train[0:16]
	bad := []int64{s.DS.Train[0], int64(len(s.DS.Labels))} // no such node
	ld := NewLoader(s, m.Devs[0], []int{5, 5}, 1)
	ld.Plan([][]int64{good, bad, good})
	ld.BuildBatch(good) // starts the doomed build; must not fail itself
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(runtime.Error); !ok {
				t.Errorf("joining the failed build: recovered %v, want the builder's index-out-of-range error", r)
			}
		}()
		ld.BuildBatch(bad)
	}()
	waitNoBuilders(t, "after a builder panic")
}

// TestNoBuilderOutlivesItsPlan: the builder exists only from one planned
// BuildBatch to the next. Nothing is left once a plan is drained, and a plan
// abandoned halfway leaves nothing either — its last build finishes and the
// goroutine ends, so a dropped loader is collectable.
func TestNoBuilderOutlivesItsPlan(t *testing.T) {
	m, s := goldenStore(t, "resident")
	m.Reset()
	lists := [][]int64{s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[32:48]}

	ld := NewLoader(s, m.Devs[0], []int{5, 5}, 1)
	ld.Plan(lists)
	for _, l := range lists {
		ld.BuildBatch(l)
	}
	waitNoBuilders(t, "after a drained plan")

	// The finalizer goes on the loader's cache, which nothing else holds:
	// the loader itself sits on a cycle (it keeps its builder's closure),
	// and finalizers of objects on a cycle are not guaranteed to run.
	collected := make(chan struct{})
	func() {
		fc, err := cache.NewDegreeCache(s.PG, m.Devs[1], 10)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(fc, func(*cache.FeatureCache) { close(collected) })
		dropped := NewLoader(s, m.Devs[1], []int{5, 5}, 1).WithCache(fc)
		dropped.Plan(lists)
		dropped.BuildBatch(lists[0]) // list 1 is now building ahead; nobody will ask for it
	}()
	waitNoBuilders(t, "after an abandoned plan")
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a loader dropped with a plan open was not collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPlannedBuildsAllocFree: in the steady state a planned build costs no
// allocation — the builder goroutine starts from a function value the
// loader keeps and reports on a channel it keeps.
func TestPlannedBuildsAllocFree(t *testing.T) {
	m, s := goldenStore(t, "resident")
	m.Reset()
	ld := NewLoader(s, m.Devs[1], []int{5, 40}, 3)
	lists := [][]int64{s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[0:16], s.DS.Train[16:32]}
	epoch := func() {
		ld.Plan(lists)
		for _, l := range lists {
			ld.BuildBatch(l)
		}
	}
	epoch()
	epoch()
	if n := testing.AllocsPerRun(50, epoch); n != 0 {
		t.Errorf("a planned epoch of %d builds allocated %v times", len(lists), n)
	}
}
