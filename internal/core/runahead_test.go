package core

import (
	"bytes"
	"fmt"
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

// drive says how runBuilds calls the loader.
type drive struct {
	// pipelined builds through Prefetch, Collect and Release, as the
	// pipelined trainer does, instead of BuildBatch.
	pipelined bool
	// planned announces each epoch's builds first.
	planned bool
	// speculate hands the loader the next epoch's first builds during each
	// epoch's last step — one sequentially, two pipelined — and joins them
	// after it, as RunEpoch does.
	speculate bool
	// between builds an unplanned batch between epochs, as Evaluate does.
	between bool
}

// loaderRun is what runBuilds' calls left behind that a caller can observe:
// every build's record, the cache's counters after every epoch, the
// device's final Stats and trace; and how many epochs adopted speculative
// builds.
type loaderRun struct {
	recs    []buildRecord
	counts  [][2]int64
	stats   sim.DeviceStats
	trace   []sim.Interval
	adopted int
}

// runBuilds drives two epochs of six builds over three target lists (so the
// list wraps, as a short shard's does in the epoch loop; the second epoch
// starts at another list) the way the trainer does: build, read the whole
// batch, charge a step's worth of compute.
func runBuilds(t *testing.T, ds *dataset.Dataset, name string, cached bool, d drive) loaderRun {
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
	sets := [][]int64{s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[32:48]}
	epochLists := func(e int) [][]int64 {
		lists := make([][]int64, 6)
		for i := range lists {
			lists[i] = sets[(i+e)%len(sets)]
		}
		return lists
	}
	var r loaderRun
	record := func(b *gnn.Batch, tm Timing) {
		r.recs = append(r.recs, buildRecord{hashBatch(b), tm, dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy)})
	}
	lists := epochLists(0)
	for e := 0; e < 2; e++ {
		next := epochLists(e + 1)
		if d.planned {
			ld.Plan(lists)
			if ld.nAhead > 0 {
				r.adopted++
			}
		}
		for i, targets := range lists {
			var b *gnn.Batch
			var tm Timing
			if d.pipelined {
				if i == 0 {
					ld.Prefetch(targets)
				}
				b, tm = ld.Collect()
				if i+1 < len(lists) {
					ld.Prefetch(lists[i+1])
				}
			} else {
				b, tm = ld.BuildBatch(targets)
			}
			if d.speculate && i == len(lists)-1 {
				n := 1
				if d.pipelined {
					n = 2
				}
				ld.Speculate(next[:n])
			}
			// The builder is already filling another body: reading this batch
			// in full is what the race detector checks the two against.
			record(b, tm)
			dev.Gemm(b.Feat.R, 64, b.Feat.C, "step")
			if d.pipelined {
				ld.Release()
			}
		}
		if d.speculate {
			ld.Join()
		}
		if fc != nil {
			r.counts = append(r.counts, [2]int64{fc.Hits, fc.Misses})
		}
		if d.between {
			record(ld.BuildBatch(sets[e][:8]))
		}
		lists = next
	}
	r.stats, r.trace = dev.Stats, dev.Trace()
	return r
}

// storeCases are the loader's store flavours: resident, weighted, cached and
// paged (which cannot run ahead and builds at the call).
var storeCases = []struct {
	store  string
	cached bool
}{
	{"resident", false}, {"resident", true}, {"weighted", false},
	{"pagedtopo", false}, {"pagedfeat", false}, {"pagedfeat", true},
}

// sameRuns reports every difference between two loaderRuns.
func sameRuns(t *testing.T, name string, want, got loaderRun) {
	t.Helper()
	if len(want.recs) != len(got.recs) {
		t.Fatalf("%s: %d builds, want %d", name, len(got.recs), len(want.recs))
	}
	for i := range want.recs {
		if want.recs[i] != got.recs[i] {
			t.Errorf("%s build %d: %+v, want %+v", name, i, got.recs[i], want.recs[i])
		}
	}
	if want.recs[0].tm.Sample <= 0 || want.recs[0].tm.Gather <= 0 {
		t.Errorf("%s: Timing not recorded: %+v", name, want.recs[0].tm)
	}
	if want.stats != got.stats {
		t.Errorf("%s: DeviceStats %+v, want %+v", name, got.stats, want.stats)
	}
	if !reflect.DeepEqual(want.trace, got.trace) {
		t.Errorf("%s: trace intervals differ (%d, want %d)", name, len(got.trace), len(want.trace))
	}
	if !reflect.DeepEqual(want.counts, got.counts) {
		t.Errorf("%s: cache hits/misses per epoch %v, want %v", name, got.counts, want.counts)
	}
}

// TestPlannedEqualsUnplanned is the pin of run-ahead as a pure refactor of
// values: announcing the builds changes nothing a caller can observe — batch
// contents, Timing, either stream clock after every call, the device's
// Stats, its trace intervals, the cache's counters — on resident, weighted,
// cached and paged stores, through BuildBatch and through
// Prefetch/Collect/Release. scripts/check.sh race-stresses it.
func TestPlannedEqualsUnplanned(t *testing.T) {
	plain, weighted := goldenDataset(t, false), goldenDataset(t, true)
	for _, tc := range storeCases {
		ds := plain
		if tc.store == "weighted" {
			ds = weighted
		}
		for _, pipelined := range []bool{false, true} {
			name := tc.store
			if tc.cached {
				name += "+cache"
			}
			if pipelined {
				name += "/pipelined"
			}
			want := runBuilds(t, ds, tc.store, tc.cached, drive{pipelined: pipelined})
			got := runBuilds(t, ds, tc.store, tc.cached, drive{pipelined: pipelined, planned: true})
			sameRuns(t, name, want, got)
		}
	}
}

// TestSpeculationEqualsNone: a speculative build that a plan adopts gives
// what building the planned list at its call does, and one that an
// out-of-plan build undoes gives what never speculating does — batches,
// Timing, both clocks, Stats, trace and the cache's counters, read after
// every epoch while the speculation is outstanding — sequentially and
// pipelined. scripts/check.sh race-stresses it.
func TestSpeculationEqualsNone(t *testing.T) {
	ds := goldenDataset(t, false)
	for _, tc := range storeCases {
		if tc.store == "weighted" {
			continue
		}
		staged := tc.store == "resident"
		for _, pipelined := range []bool{false, true} {
			for _, between := range []bool{false, true} {
				name := fmt.Sprintf("%s cached=%v pipelined=%v between=%v", tc.store, tc.cached, pipelined, between)
				want := runBuilds(t, ds, tc.store, tc.cached, drive{pipelined: pipelined, between: between})
				got := runBuilds(t, ds, tc.store, tc.cached, drive{pipelined: pipelined, planned: true, speculate: true, between: between})
				sameRuns(t, name, want, got)
				// The second epoch follows one with a speculation.
				wantAdopted := 0
				if staged && !between {
					wantAdopted = 1
				}
				if got.adopted != wantAdopted {
					t.Errorf("%s: %d epochs adopted speculative builds, want %d", name, got.adopted, wantAdopted)
				}
			}
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
// that of its head, through BuildBatch or Prefetch — on stores that run
// ahead and on stores that cannot alike.
func TestOutOfPlanCallsPanic(t *testing.T) {
	for _, name := range []string{"resident", "pagedtopo"} {
		m, s := goldenStore(t, name)
		m.Reset()
		a, b, c := s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[32:48]
		ld := NewLoader(s, m.Devs[0], []int{5, 5}, 1)
		ld.Plan([][]int64{a, b, c})
		mustPanic(t, name+": a second Plan", "planned builds outstanding", func() { ld.Plan([][]int64{a}) })
		mustPanic(t, name+": Speculate under a plan", "planned builds outstanding", func() { ld.Speculate([][]int64{a}) })
		mustPanic(t, name+": Prefetch of the wrong list", "out of plan", func() { ld.Prefetch(b) })
		mustPanic(t, name+": BuildBatch of the wrong list", "out of plan", func() { ld.BuildBatch(b) })
		ld.BuildBatch(a)
		mustPanic(t, name+": BuildBatch of a skipped-to list", "out of plan", func() { ld.BuildBatch(c) })
		ld.Prefetch(b)
		ld.Collect()
		ld.Release()
		ld.BuildBatch(c)
		// Drained: anything goes again.
		ld.BuildBatch(a)
		ld.Prefetch(b)
		mustPanic(t, name+": Plan over a pending prefetch", "prefetch pending", func() { ld.Plan([][]int64{a}) })
		mustPanic(t, name+": Speculate over a pending prefetch", "prefetch pending", func() { ld.Speculate([][]int64{a}) })
		ld.Collect()
		ld.Plan(nil)
		ld.BuildBatch(c)
		if prev := m.Devs[0].SetStream(sim.StreamCompute); prev != sim.StreamCompute {
			t.Errorf("%s: a refused call left the device on stream %v", name, prev)
		}
	}
}

// builderGoroutines counts live goroutines running the loader's run-ahead
// body.
func builderGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("core.(*Loader).buildAhead"))
}

// waitNoBuilders fails unless every build ends shortly: a builder goroutine
// leaves buildAhead, and holds no loader, as soon as its build is done.
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

// TestNoBuilderOutlivesItsPlan: a build runs only from one planned
// BuildBatch to the next. Nothing is left once a plan is drained, and a plan
// abandoned halfway leaves nothing either — its last build finishes and its
// builder goes idle holding nothing, so a dropped loader is collectable.
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
	// the loader itself sits on a cycle (its faces point into it), and
	// finalizers of objects on a cycle are not guaranteed to run.
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
// loader keeps and reports on a channel it keeps — whether it goes through
// BuildBatch or Prefetch, and whether the epoch's first builds were
// speculated and adopted.
func TestPlannedBuildsAllocFree(t *testing.T) {
	m, s := goldenStore(t, "resident")
	m.Reset()
	lists := [][]int64{s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[0:16], s.DS.Train[16:32]}
	for _, pipelined := range []bool{false, true} {
		ld := NewLoader(s, m.Devs[1], []int{5, 40}, 3)
		speculated := 1
		if pipelined {
			speculated = 2
		}
		epoch := func() {
			ld.Plan(lists)
			for i, l := range lists {
				if !pipelined {
					ld.BuildBatch(l)
					continue
				}
				if i == 0 {
					ld.Prefetch(l)
				}
				ld.Collect()
				if i+1 < len(lists) {
					ld.Prefetch(lists[i+1])
				}
				ld.Release()
			}
			ld.Speculate(lists[:speculated])
			ld.Join()
		}
		for range 3 {
			epoch()
		}
		if n := testing.AllocsPerRun(50, epoch); n != 0 {
			t.Errorf("pipelined=%v: a planned epoch of %d builds allocated %v times", pipelined, len(lists), n)
		}
	}
}
