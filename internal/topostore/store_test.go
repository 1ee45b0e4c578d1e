package topostore

import (
	"math/rand"
	"testing"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// testFill writes a deterministic function of the edge index so decoded
// values are checkable without a backing array.
func testFill(e0, e1 int64, dst []uint64, _ []int64) {
	for e := e0; e < e1; e++ {
		dst[e-e0] = uint64(e)*2654435761 + 7
	}
}

func wantCol(e int64) uint64 { return uint64(e)*2654435761 + 7 }

func newTestStore(t *testing.T, numEdges int64, opts Options) (*Store, *sim.Device) {
	t.Helper()
	s, err := New(numEdges, testFill, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	return s, m.Devs[0]
}

// TestAccessDecodesExact: At returns the fill values bit-exactly across
// page boundaries and the partial last page, resident or not.
func TestAccessDecodesExact(t *testing.T) {
	const numEdges = 1000
	s, dev := newTestStore(t, numEdges, Options{PageEdges: 64}) // partial last page
	if s.NumPages() != 16 {
		t.Fatalf("pages = %d, want 16", s.NumPages())
	}
	acc := s.Begin(dev)
	for _, e := range []int64{0, 1, 63, 64, 65, 500, 960, numEdges - 1} {
		if got := acc.At(e); got != wantCol(e) {
			t.Fatalf("edge %d: %d != %d", e, got, wantCol(e))
		}
	}
	acc.Flush("test")
	// Repeat after the flush: same values from resident pages.
	acc = s.Begin(dev)
	for e := int64(0); e < numEdges; e++ {
		if got := acc.At(e); got != wantCol(e) {
			t.Fatalf("edge %d after flush: %d != %d", e, got, wantCol(e))
		}
	}
	acc.Flush("test")
}

// TestFlushChargesMissesThenHits: the first batch faults pages on the
// copy stream; repeating the same edges is served from the cache —
// strictly cheaper, with the counters moving accordingly.
func TestFlushChargesMissesThenHits(t *testing.T) {
	s, dev := newTestStore(t, 4096, Options{PageEdges: 128})
	edges := []int64{0, 130, 260, 1000, 2000, 4000}

	t0 := dev.Now()
	acc := s.Begin(dev)
	for _, e := range edges {
		acc.At(e)
	}
	if faulted := acc.Flush("test"); faulted != 6 {
		t.Fatalf("faulted %d pages, want 6", faulted)
	}
	missTime := dev.Now() - t0
	st := s.Stats()
	if st.Misses != 6 || st.Hits != 0 {
		t.Fatalf("first batch: %+v", st)
	}

	t1 := dev.Now()
	acc = s.Begin(dev)
	for _, e := range edges {
		acc.At(e)
	}
	if faulted := acc.Flush("test"); faulted != 0 {
		t.Fatalf("repeat batch faulted %d pages", faulted)
	}
	hitTime := dev.Now() - t1
	st = s.Stats()
	if st.Misses != 6 || st.Hits != 6 {
		t.Errorf("repeat batch: %+v", st)
	}
	if hitTime >= missTime {
		t.Errorf("hit batch (%.3g s) not cheaper than miss batch (%.3g s)", hitTime, missTime)
	}
	// Within one batch, repeated edges on the same page count one lookup.
	acc = s.Begin(dev)
	acc.At(0)
	acc.At(1)
	acc.At(2)
	acc.Flush("test")
	if got := s.Stats().Hits; got != 7 {
		t.Errorf("batched lookups: hits = %d, want 7", got)
	}
}

// TestBeginOverUnflushedMissesPanics: the missed pages of an open batch are
// already in the cache, so reopening it before Flush would leave their
// migration uncharged for good.
func TestBeginOverUnflushedMissesPanics(t *testing.T) {
	s, dev := newTestStore(t, 4096, Options{PageEdges: 128})
	s.Begin(dev).At(0)
	defer func() {
		if recover() == nil {
			t.Error("a second Begin silently dropped the batch's page fault")
		}
	}()
	s.Begin(dev)
}

// TestEvictionChurnKeepsValues: a tiny budget forces evictions; every
// refilled page decodes the same values (fill determinism).
func TestEvictionChurnKeepsValues(t *testing.T) {
	pageBytes := int64(64*8) + 16
	s, dev := newTestStore(t, 4096, Options{PageEdges: 64, CacheBytes: 3 * pageBytes})
	x := uint64(12345)
	for i := 0; i < 300; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		e := int64(x % 4096)
		acc := s.Begin(dev)
		if got := acc.At(e); got != wantCol(e) {
			t.Fatalf("iter %d edge %d: wrong value after eviction churn", i, e)
		}
		acc.Flush("test")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions under a 3-page budget")
	}
	if st.ResidentBytes > 3*pageBytes {
		t.Errorf("resident %d over budget %d", st.ResidentBytes, 3*pageBytes)
	}
}

// TestPrefetchOverlapsAndJoins: a prefetch issued before compute runs on
// the copy stream without blocking it; the first demand batch joins the
// transfer (counted as prefetch hits) and faults nothing.
func TestPrefetchOverlapsAndJoins(t *testing.T) {
	s, dev := newTestStore(t, 4096, Options{PageEdges: 128})

	n := s.PrefetchPages(dev, []int32{0, 1, 2})
	if n != 3 {
		t.Fatalf("prefetched %d pages, want 3", n)
	}
	// The prefetch must not advance the compute stream.
	if now := dev.StreamNow(sim.StreamCompute); now != 0 {
		t.Fatalf("prefetch advanced compute stream to %g", now)
	}
	dev.Kernel(sim.KernelCost{FLOPs: 1e12, Tag: "compute"}) // overlapping work

	acc := s.Begin(dev)
	acc.At(0)   // page 0, prefetched
	acc.At(129) // page 1, prefetched
	if faulted := acc.Flush("test"); faulted != 0 {
		t.Fatalf("demand batch faulted %d prefetched pages", faulted)
	}
	st := s.Stats()
	if st.PrefetchHits != 2 {
		t.Errorf("prefetch hits = %d, want 2", st.PrefetchHits)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d after full prefetch coverage", st.Misses)
	}
	// Re-prefetching resident pages is a no-op.
	if n := s.PrefetchPages(dev, []int32{0, 1, 2}); n != 0 {
		t.Errorf("re-prefetch faulted %d resident pages", n)
	}
	// Out-of-range ids are skipped.
	if n := s.PrefetchPages(dev, []int32{-1, 1000}); n != 0 {
		t.Errorf("out-of-range prefetch faulted %d pages", n)
	}
}

// TestPrefetchNoTimeTravel: a demand batch that joins an in-flight
// prefetch never completes before the transfer's ready event.
func TestPrefetchNoTimeTravel(t *testing.T) {
	s, dev := newTestStore(t, 4096, Options{PageEdges: 128})
	s.PrefetchPages(dev, []int32{5})
	ready := dev.StreamNow(sim.StreamCopy)
	if ready <= 0 {
		t.Fatal("prefetch charged nothing on the copy stream")
	}
	acc := s.Begin(dev)
	acc.At(5 * 128)
	acc.Flush("test")
	if now := dev.StreamNow(sim.StreamCompute); now < ready {
		t.Errorf("demand batch finished at %g before prefetch ready %g", now, ready)
	}
}

// TestAdmitPolicyWiring: PolicyAdmit reaches the per-device caches and
// rejected pages still serve correct values for the faulting batch.
func TestAdmitPolicyWiring(t *testing.T) {
	pageBytes := int64(64*8) + 16
	s, dev := newTestStore(t, 64*300, Options{
		PageEdges:  64,
		CacheBytes: 4 * pageBytes,
		Policy:     blockcache.PolicyAdmit,
	})
	// Hot set: pages 0..3, touched repeatedly; then a cold scan.
	for round := 0; round < 30; round++ {
		acc := s.Begin(dev)
		for p := int64(0); p < 4; p++ {
			e := p * 64
			if got := acc.At(e); got != wantCol(e) {
				t.Fatalf("hot edge %d wrong", e)
			}
		}
		acc.Flush("test")
	}
	for p := int64(4); p < 300; p++ {
		e := p * 64
		acc := s.Begin(dev)
		if got := acc.At(e); got != wantCol(e) {
			t.Fatalf("cold edge %d wrong under admission", e)
		}
		acc.Flush("test")
	}
	st := s.Stats()
	if st.AdmissionRejects == 0 {
		t.Error("cold scan produced no admission rejects")
	}
	if st.Policy != "admit" {
		t.Errorf("policy = %q", st.Policy)
	}
	// Hot pages survived the scan: one more hot round, all hits.
	before := s.Stats().Misses
	acc := s.Begin(dev)
	for p := int64(0); p < 4; p++ {
		acc.At(p * 64)
	}
	acc.Flush("test")
	if after := s.Stats().Misses; after != before {
		t.Errorf("hot pages evicted by cold scan: %d new misses", after-before)
	}
}

// TestPerDeviceIsolation: each attached device gets its own cache and
// Access scratch; concurrent per-device accesses race-clean and decode
// correct values (run under -race via scripts/check.sh).
func TestPerDeviceIsolation(t *testing.T) {
	s, err := New(8192, testFill, Options{PageEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	devs := m.Devs[:2]
	s.Attach(devs...)
	errs := make(chan error, len(devs))
	sim.RunParallel(len(devs), func(r int) {
		dev := devs[r]
		x := uint64(r)*2654435761 + 99
		for i := 0; i < 200; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			e := int64(x % 8192)
			acc := s.Begin(dev)
			if got := acc.At(e); got != wantCol(e) {
				errs <- nil
				return
			}
			acc.Flush("test")
		}
	})
	close(errs)
	if len(errs) > 0 {
		t.Fatal("wrong value under concurrent per-device access")
	}
	st := s.Stats()
	if st.Devices != 2 {
		t.Fatalf("devices = %d", st.Devices)
	}
	if st.Hits+st.Misses != 2*200 {
		t.Errorf("lookups %d != %d", st.Hits+st.Misses, 2*200)
	}
}

// TestDemandFillMatchesEagerFill: whatever order entries are read in —
// repeats, run boundaries, the partial last page and its partial last
// run, pages that arrived by prefetch, one-entry batches — every read
// returns what filling the whole page up front would have given, and the
// fill is only ever asked for aligned runs inside one page.
func TestDemandFillMatchesEagerFill(t *testing.T) {
	const numEdges, pageEdges = 5000, 300 // 300 = 4 runs + 44; last page 200 = 3 runs + 8
	pageBytes := int64(pageEdges*8) + 16
	for seed := uint64(1); seed <= 5; seed++ {
		var filled int64
		fill := func(e0, e1 int64, dst []uint64, scratch []int64) {
			if e0/pageEdges != (e1-1)/pageEdges || (e0%pageEdges)%fillRun != 0 ||
				e1-e0 > fillRun || int64(len(dst)) != e1-e0 || int64(len(scratch)) != e1-e0 {
				t.Errorf("fill asked for [%d,%d) with %d dst, %d scratch", e0, e1, len(dst), len(scratch))
			}
			filled += e1 - e0
			testFill(e0, e1, dst, scratch)
		}
		s, err := New(numEdges, fill, Options{PageEdges: pageEdges, CacheBytes: 4 * pageBytes})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMachine(sim.DGXA100(1))
		s.Attach(m.Devs...)
		dev := m.Devs[0]
		x := seed * 0x9e3779b97f4a7c15
		next := func(n int64) int64 {
			x = x*6364136223846793005 + 1442695040888963407
			return int64((x >> 33) % uint64(n))
		}
		var reads int64
		for round := 0; round < 60; round++ {
			switch next(3) {
			case 0:
				s.PrefetchPages(dev, []int32{int32(next(18)) - 1, int32(next(18))})
				fallthrough
			case 1:
				acc := s.Begin(dev)
				first := next(numEdges)
				for i := int64(0); i < 1+next(40); i++ {
					e := next(numEdges)
					switch i % 5 {
					case 1:
						e = first // repeat
					case 2:
						e = numEdges - 1 - next(200) // partial last page
					}
					if got := acc.At(e); got != wantCol(e) {
						t.Fatalf("seed %d round %d: At(%d) = %d, want %d", seed, round, e, got, wantCol(e))
					}
					reads++
				}
				acc.Flush("t")
			default:
				e := next(numEdges)
				acc := s.Begin(dev)
				if got := acc.At(e); got != wantCol(e) {
					t.Fatalf("seed %d round %d: lone At(%d) = %d, want %d", seed, round, e, got, wantCol(e))
				}
				acc.Flush("t")
				reads++
			}
		}
		st := s.Stats()
		if st.Evictions == 0 || st.Hits == 0 {
			t.Fatalf("seed %d: test exercised no eviction or no hit: %+v", seed, st)
		}
		if filled > reads*fillRun {
			t.Errorf("seed %d: filled %d entries for %d reads: more than one run per read", seed, filled, reads)
		}
	}
}

// TestRecycledPagesInsideOneBatch: with a budget of one or two pages a
// single Begin…Flush batch evicts pages it is still reading from, and
// later faults reuse recycled buffers; every value must still match the
// fill, on one device and on four driven concurrently (the -race surface).
func TestRecycledPagesInsideOneBatch(t *testing.T) {
	const numEdges, pageEdges = 64 * 200, 200
	pageBytes := int64(pageEdges*8) + 16
	for _, budgetPages := range []int64{1, 2} {
		s, err := New(numEdges, testFill, Options{PageEdges: pageEdges, CacheBytes: budgetPages * pageBytes})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMachine(sim.DGXA100(1))
		devs := m.Devs[:4]
		s.Attach(devs...)
		run := func(r int) {
			x := uint64(r)*2654435761 + 99
			for it := 0; it < 40; it++ {
				if it%3 == 0 {
					s.PrefetchPages(devs[r], []int32{int32(it % 64), int32((it + 7) % 64)})
				}
				acc := s.Begin(devs[r])
				for i := 0; i < 64; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					e := int64((x >> 33) % numEdges)
					if i%8 < 2 {
						// Alternate two pages so each is read again after
						// later misses have pushed it out of the cache.
						e = int64(i%8)*pageEdges + int64(i)
					}
					if got := acc.At(e); got != wantCol(e) {
						t.Errorf("budget %d rank %d iter %d: At(%d) = %d, want %d", budgetPages, r, it, e, got, wantCol(e))
						return
					}
				}
				acc.Flush("t")
			}
		}
		run(0)
		sim.RunParallel(len(devs), run)
		st := s.Stats()
		if st.Evictions == 0 {
			t.Fatalf("budget %d: no evictions: %+v", budgetPages, st)
		}
		if st.ResidentBytes > int64(len(devs))*budgetPages*pageBytes {
			t.Errorf("budget %d: resident %d over budget", budgetPages, st.ResidentBytes)
		}
	}
}

// TestRecycledPageForgetsPrefetch: a page buffer that carried an
// in-flight prefetch's ready event comes back from the free list with the
// event cleared, so a later demand batch never joins the stale transfer.
func TestRecycledPageForgetsPrefetch(t *testing.T) {
	const pageEdges = 128
	pageBytes := int64(pageEdges*8) + 16
	s, dev := newTestStore(t, 64*pageEdges, Options{PageEdges: pageEdges, CacheBytes: pageBytes})
	s.PrefetchPages(dev, []int32{0})
	// Two demand batches push the prefetched page out and recycle it.
	for _, p := range []int64{1, 2} {
		acc := s.Begin(dev)
		acc.At(p * pageEdges)
		acc.Flush("t")
	}
	acc := s.Begin(dev)
	acc.At(3 * pageEdges)
	if got := acc.b.Page(3).ready; got != (sim.Event{}) {
		t.Fatalf("recycled page kept a ready event: %+v", got)
	}
	acc.Flush("t")
}

// TestSteadyStateFaultingBatchAllocs: once the cache is full and the
// free list primed, an access batch — and a prefetch — that faults and
// evicts on every page allocates nothing.
func TestSteadyStateFaultingBatchAllocs(t *testing.T) {
	const pageEdges, pages = 256, 512
	pageBytes := int64(pageEdges*8) + 16
	s, dev := newTestStore(t, pages*pageEdges, Options{PageEdges: pageEdges, CacheBytes: 16 * pageBytes})
	next := int64(0)
	ids := make([]int32, 4)
	batch := func() {
		for i := range ids {
			ids[i] = int32((next + 8 + int64(i)) % pages)
		}
		s.PrefetchPages(dev, ids)
		acc := s.Begin(dev)
		for i := 0; i < 8; i++ { // 8 fresh pages, two runs each; the prefetch covered 4
			e := (next % pages) * pageEdges
			acc.At(e + 3)
			acc.At(e + 200)
			next++
		}
		acc.Flush("t")
	}
	for i := 0; i < 8; i++ {
		batch()
	}
	before := s.Stats()
	if avg := testing.AllocsPerRun(50, batch); avg != 0 {
		t.Errorf("faulting access batch allocates %.1f objects per call, want 0", avg)
	}
	after := s.Stats()
	if after.Misses-before.Misses < 50*4 || after.PrefetchHits-before.PrefetchHits < 50*4 ||
		after.Evictions-before.Evictions < 50*8 {
		t.Fatalf("batches did not fault and evict: %+v -> %+v", before, after)
	}
}

// TestStatsSumPerDeviceCaches: devices share nothing but the fill, so on a
// run that faults, hits, prefetches and evicts on two devices the store's
// promoted counters equal the field-by-field sums over two one-device stores
// driven with each device's half of the run.
func TestStatsSumPerDeviceCaches(t *testing.T) {
	const numEdges, pageEdges = 1 << 14, 128
	opts := Options{PageEdges: pageEdges, CacheBytes: 4 * (pageEdges*8 + 8)}
	// drive runs device slot's share of the 200 steps on dev.
	drive := func(s *Store, dev *sim.Device, slot int) {
		rng := rand.New(rand.NewSource(int64(3 + slot)))
		for i := slot; i < 200; i += 2 {
			if i%5 == 0 {
				s.PrefetchPages(dev, []int32{int32(rng.Intn(numEdges / pageEdges))})
			}
			acc := s.Begin(dev)
			for k := 0; k < 6; k++ {
				acc.At(rng.Int63n(numEdges / (1 + int64(i%3))))
			}
			acc.Flush("test")
		}
	}
	both, err := New(numEdges, testFill, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	both.Attach(m.Devs[:2]...)
	var hits, misses, evictions, prefetchHits, resident int64
	for slot := 0; slot < 2; slot++ {
		drive(both, m.Devs[slot], slot)
		one, dev := newTestStore(t, numEdges, opts)
		drive(one, dev, slot)
		cs := one.Stats()
		hits += cs.Hits
		misses += cs.Misses
		evictions += cs.Evictions
		prefetchHits += cs.PrefetchHits
		resident += cs.ResidentBytes
	}
	st := both.Stats()
	if st.Hits != hits || st.Misses != misses || st.Evictions != evictions ||
		st.PrefetchHits != prefetchHits || st.ResidentBytes != resident {
		t.Errorf("Stats() = %+v, per-device sums: hits %d misses %d evictions %d prefetch hits %d resident %d",
			st.CacheStats, hits, misses, evictions, prefetchHits, resident)
	}
	if hits == 0 || misses == 0 || evictions == 0 || prefetchHits == 0 || resident == 0 {
		t.Errorf("the run left a counter at zero, so its sum was not exercised: %+v", st.CacheStats)
	}
	// Two machine nodes page the same graph: counters, devices and budgets
	// sum, the table's shape does not.
	var twice Stats
	twice.Add(st)
	twice.Add(st)
	want := st
	want.Devices, want.CacheBytes = 2*st.Devices, 2*st.CacheBytes
	want.CacheStats.Add(st.CacheStats)
	if twice != want {
		t.Errorf("Stats.Add twice: %+v, want %+v", twice, want)
	}
}

// FuzzTopoAccess drives random batches of edge reads through Begin / Read /
// Flush with the fan-out on (four claimants; every other batch is large
// enough to be shared) and checks each value three ways: against At, one
// edge at a time, on a second store driven with the same batches — whose
// cache counters and clocks must come out the same, since Read resolves
// pages in At's order — and against the fill function called directly. The
// fill works through its scratch, so two claimants handed one workspace
// would corrupt values (and trip -race).
func FuzzTopoAccess(f *testing.F) {
	f.Add(uint64(1), uint16(5000), uint8(64), uint8(3), false)
	f.Add(uint64(2), uint16(100), uint8(1), uint8(1), true)      // one-edge pages
	f.Add(uint64(3), uint16(65535), uint8(255), uint8(40), true) // a cache that holds most of it
	f.Add(uint64(4), uint16(63), uint8(200), uint8(0), false)    // a single partial page
	fill := func(e0, e1 int64, dst []uint64, scratch []int64) {
		for i := range scratch {
			scratch[i] = (e0 + int64(i)) * 0x9e3779b9
		}
		for i, v := range scratch {
			dst[i] = uint64(v) ^ uint64(e0+int64(i))<<40
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, nEdges uint16, nPage, nCache uint8, admit bool) {
		defer tensor.SetWorkers(tensor.SetWorkers(4))
		defer sim.SetParallel(sim.SetParallel(true))
		if blockcache.Claimants(8*fillRun*fanoutReads) != 4 || blockcache.Claimants(8*fillRun*(fanoutReads-1)) != 1 {
			t.Fatalf("the fan-out cutoff is no longer %d reads", fanoutReads)
		}
		numEdges, pageEdges := 1+int64(nEdges), 1+int(nPage)
		opts := Options{PageEdges: pageEdges, CacheBytes: int64(1+int(nCache)) * int64(pageEdges*8+pageMetaBytes)}
		if admit {
			opts.Policy = blockcache.PolicyAdmit
		}
		stores, devs := [2]*Store{}, [2]*sim.Device{}
		for i := range stores {
			s, err := New(numEdges, fill, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := sim.NewMachine(sim.DGXA100(1))
			s.Attach(m.Devs...)
			stores[i], devs[i] = s, m.Devs[0]
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		var one [1]uint64
		for batch := 0; batch < 4; batch++ {
			n := 1 + rng.Intn(40)
			if batch%2 == 1 {
				n += fanoutReads // above the cutoff: the fill is shared
			}
			edges, got := make([]int64, n), make([]uint64, n)
			for i := range edges {
				edges[i] = rng.Int63n(numEdges)
				if i > 0 && rng.Intn(4) == 0 {
					edges[i] = min(edges[i-1]+1, numEdges-1) // a run of neighbours
				}
			}
			if rng.Intn(2) == 0 {
				ids := []int32{stores[0].PageOf(edges[0]), stores[0].PageOf(edges[n-1])}
				stores[0].PrefetchPages(devs[0], ids)
				stores[1].PrefetchPages(devs[1], ids)
			}
			batched, single := stores[0].Begin(devs[0]), stores[1].Begin(devs[1])
			batched.Read(edges, got)
			for i, e := range edges {
				fill(e, e+1, one[:], make([]int64, 1))
				if at := single.At(e); got[i] != at || at != one[0] {
					t.Fatalf("batch %d edge %d: Read %#x, At %#x, fill %#x", batch, e, got[i], at, one[0])
				}
			}
			if a, b := batched.Flush("t"), single.Flush("t"); a != b {
				t.Fatalf("batch %d: Read faulted %d pages, At %d", batch, a, b)
			}
		}
		if a, b := stores[0].Stats(), stores[1].Stats(); a != b {
			t.Errorf("stats after Read %+v, after At %+v", a, b)
		}
		for _, stream := range []sim.StreamKind{sim.StreamCompute, sim.StreamCopy} {
			if a, b := devs[0].StreamNow(stream), devs[1].StreamNow(stream); a != b {
				t.Errorf("stream %v at %g after Read, %g after At", stream, a, b)
			}
		}
	})
}

// fanoutReads is the number of reads from which a Read's fill is shared
// (FuzzTopoAccess checks it against blockcache.Claimants).
const fanoutReads = 256 << 10 / (8 * fillRun)
