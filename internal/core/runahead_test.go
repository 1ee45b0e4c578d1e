package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wholegraph/internal/cache"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sampling"
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
	// planned hints each epoch's builds first and joins the builder after
	// the epoch's last step.
	planned bool
	// hintNext, on a planned drive, also hints the next epoch's first builds
	// — one sequentially, two pipelined — during each epoch's last step, as
	// RunEpoch does.
	hintNext bool
	// midway builds another list than the hinted one in the middle of each
	// epoch; between builds an unhinted batch between epochs, as Evaluate
	// does.
	midway, between bool
}

// loaderRun is what runBuilds' calls left behind that a caller can observe:
// every build's record, the cache's counters after every epoch, the
// device's final Stats and trace; how many epochs kept builds run ahead
// for them, and after how many Plan calls builds ran ahead.
type loaderRun struct {
	recs       []buildRecord
	counts     [][2]int64
	stats      sim.DeviceStats
	trace      []sim.Interval
	adopted    int
	plansAhead int
}

// runBuilds drives two epochs of six builds over three target lists (so the
// list wraps, as a short shard's does in the epoch loop; the second epoch
// starts at another list) the way the trainer does: build, read the whole
// batch, charge a step's worth of compute.
func runBuilds(t *testing.T, ds *dataset.Dataset, name string, cached bool, d drive) loaderRun {
	t.Helper()
	waitNoBuilders(t, "before "+name)
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
	plan := func(lists [][]int64) {
		ld.Plan(lists)
		if ld.nAhead > 0 || builderGoroutines() > 0 {
			r.plansAhead++
		}
	}
	record := func(b *gnn.Batch, tm Timing) {
		r.recs = append(r.recs, buildRecord{hashBatch(b), tm, dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy)})
	}
	lists := epochLists(0)
	for e := 0; e < 2; e++ {
		next := epochLists(e + 1)
		built := lists
		if d.midway {
			built = slices.Clone(lists)
			built[3] = sets[e][:8]
		}
		if d.planned {
			ahead := ld.nAhead > 0
			plan(lists)
			if ahead && ld.nAhead > 0 && !ld.running {
				r.adopted++
			}
		}
		for i, targets := range built {
			var b *gnn.Batch
			var tm Timing
			if d.pipelined {
				if i == 0 {
					ld.Prefetch(targets)
				}
				b, tm = ld.Collect()
				if i+1 < len(built) {
					ld.Prefetch(built[i+1])
				}
			} else {
				b, tm = ld.BuildBatch(targets)
			}
			if d.planned && d.hintNext && i == len(built)-1 {
				n := 1
				if d.pipelined {
					n = 2
				}
				plan(next[:n])
			}
			// The builder is already filling another body: reading this batch
			// in full is what the race detector checks the two against.
			record(b, tm)
			dev.Gemm(b.Feat.R, 64, b.Feat.C, "step")
			if d.pipelined {
				ld.Release()
			}
		}
		if d.planned {
			ld.Join()
		}
		if fc != nil {
			r.counts = append(r.counts, [2]int64{fc.Hits, fc.Misses})
		}
		if d.between {
			other := sets[e][:8]
			if d.pipelined {
				ld.Prefetch(other)
				record(ld.Collect())
				ld.Release()
			} else {
				record(ld.BuildBatch(other))
			}
		}
		lists = next
	}
	r.stats, r.trace = dev.Stats, dev.Trace()
	return r
}

// storeCases are the loader's store flavours: resident and weighted, which
// run ahead, and cached and paged, which build at the call.
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

// runCases runs every store case sequentially and pipelined with and
// without a hint, the other drive fields as given, and compares the two.
// check sees the hinted run and whether its loader can build ahead.
func runCases(t *testing.T, base drive, check func(name string, staged bool, got loaderRun)) {
	plain, weighted := goldenDataset(t, false), goldenDataset(t, true)
	for _, tc := range storeCases {
		ds := plain
		if tc.store == "weighted" {
			ds = weighted
		}
		for _, pipelined := range []bool{false, true} {
			name := fmt.Sprintf("%s cached=%v pipelined=%v", tc.store, tc.cached, pipelined)
			d := base
			d.pipelined, d.planned = pipelined, false
			want := runBuilds(t, ds, tc.store, tc.cached, d)
			d.planned = true
			got := runBuilds(t, ds, tc.store, tc.cached, d)
			sameRuns(t, name, want, got)
			staged := !tc.cached && (tc.store == "resident" || tc.store == "weighted")
			check(name, staged, got)
		}
	}
}

// TestPlannedEqualsUnplanned is the pin of run-ahead as a pure refactor of
// values: hinting each epoch's builds changes nothing a caller can observe —
// batch contents, Timing, either stream clock after every call, the device's
// Stats, its trace intervals, the cache's counters after every epoch — on
// resident, weighted, cached and paged stores, through BuildBatch and through
// Prefetch/Collect/Release. A loader that builds at the call — cached or
// paged — never builds ahead and starts no builder goroutine.
// scripts/check.sh race-stresses it.
func TestPlannedEqualsUnplanned(t *testing.T) {
	runCases(t, drive{}, func(name string, staged bool, got loaderRun) {
		wantAhead := 0
		if staged {
			wantAhead = 2 // one hint per epoch
		}
		if got.adopted != 0 {
			t.Errorf("%s: %d epochs kept builds run ahead with no next-epoch hint", name, got.adopted)
		}
		if got.plansAhead != wantAhead {
			t.Errorf("%s: builds ran ahead after %d Plan calls, want %d", name, got.plansAhead, wantAhead)
		}
	})
}

// TestSpeculationEqualsNone: the next epoch's first builds, hinted during
// each epoch's last step before that epoch's own hint, change nothing a
// caller can observe — batches, Timing, both clocks, Stats, trace and the
// cache's counters, read after every epoch while those builds are ahead —
// whether the next epoch's hint keeps them or an unhinted build between the
// epochs (as Evaluate makes) undoes them, sequentially and pipelined, on
// every store. scripts/check.sh race-stresses it.
func TestSpeculationEqualsNone(t *testing.T) {
	for _, between := range []bool{false, true} {
		runCases(t, drive{hintNext: true, between: between}, func(name string, staged bool, got loaderRun) {
			wantAdopted, wantAhead := 0, 0
			if staged {
				wantAhead = 4 // two epochs' hints and two next-epoch hints
				if !between {
					wantAdopted = 1 // the second epoch follows a next-epoch hint
				}
			}
			if got.adopted != wantAdopted {
				t.Errorf("%s between=%v: %d epochs kept builds run ahead, want %d", name, between, got.adopted, wantAdopted)
			}
			if got.plansAhead != wantAhead {
				t.Errorf("%s between=%v: builds ran ahead after %d Plan calls, want %d", name, between, got.plansAhead, wantAhead)
			}
		})
	}
}

// TestOffHintBuildsEqualUnplanned: a BuildBatch or Prefetch of another list
// than the hinted head — in the middle of an epoch, and between epochs as
// Evaluate makes one — undoes every build ahead and gives what the same
// calls give unhinted, on every store, sequentially and pipelined.
// scripts/check.sh race-stresses it.
func TestOffHintBuildsEqualUnplanned(t *testing.T) {
	runCases(t, drive{hintNext: true, midway: true, between: true}, func(name string, staged bool, got loaderRun) {
		if got.adopted != 0 {
			t.Errorf("%s: %d epochs kept builds run ahead across an unhinted build", name, got.adopted)
		}
	})
}

// TestPlanWithPrefetchPendingPanics: a hint cannot be given while a
// prefetched batch waits to be collected, on stores that build ahead and on
// stores that cannot alike; collected, it can.
func TestPlanWithPrefetchPendingPanics(t *testing.T) {
	for _, name := range []string{"resident", "pagedtopo"} {
		m, s := goldenStore(t, name)
		m.Reset()
		a := s.DS.Train[0:16]
		ld := NewLoader(s, m.Devs[0], []int{5, 5}, 1)
		ld.Prefetch(a)
		func() {
			defer func() {
				if msg, ok := recover().(string); !ok || !strings.Contains(msg, "prefetch pending") {
					t.Errorf("%s: Plan over a pending prefetch panicked with %q, want a message naming the prefetch", name, msg)
				}
			}()
			ld.Plan([][]int64{a})
		}()
		ld.Collect()
		ld.Plan([][]int64{a})
		ld.BuildBatch(a)
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

// TestNoBuilderOutlivesItsPlan: a build runs ahead only until the call that
// takes it. Nothing is left once a hint is drained, and a hint abandoned
// halfway leaves nothing either — its last build finishes and its builder
// goes idle holding nothing, so a dropped loader is collectable.
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

	// The finalizer goes on the loader's sampler, which nothing else holds:
	// the loader itself sits on a cycle (its faces point into it), and
	// finalizers of objects on a cycle are not guaranteed to run.
	collected := make(chan struct{})
	func() {
		dropped := NewLoader(s, m.Devs[1], []int{5, 5}, 1)
		runtime.SetFinalizer(dropped.sampler, func(*sampling.GPUSampler) { close(collected) })
		dropped.Plan(lists)
		dropped.BuildBatch(lists[0])
		dropped.BuildBatch(lists[1]) // list 2 is now building ahead; nobody will ask for it
		if dropped.nAhead != 1 {
			t.Fatalf("%d builds ahead of an abandoned hint, want 1", dropped.nAhead)
		}
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
// BuildBatch or Prefetch, and with the epoch's first builds hinted during
// the epoch before and kept.
func TestPlannedBuildsAllocFree(t *testing.T) {
	m, s := goldenStore(t, "resident")
	m.Reset()
	lists := [][]int64{s.DS.Train[0:16], s.DS.Train[16:32], s.DS.Train[0:16], s.DS.Train[16:32]}
	for _, pipelined := range []bool{false, true} {
		ld := NewLoader(s, m.Devs[1], []int{5, 40}, 3)
		first := 1
		if pipelined {
			first = 2
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
			ld.Plan(lists[:first])
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
