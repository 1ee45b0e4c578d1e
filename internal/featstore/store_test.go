package featstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

func testSource(rng *rand.Rand, rows, dim int) *SliceSource {
	return &SliceSource{Data: randMatrix(rng, rows, dim), D: dim}
}

func newTestStore(t *testing.T, src RowSource, opts Options) (*Store, *sim.Device) {
	t.Helper()
	s, err := New(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	return s, m.Devs[0]
}

// prefetchRows prefetches the first maxPages (0 = all) distinct pages of
// rows, in order — the selection core.Loader.PrefetchPages makes.
func prefetchRows(s *Store, dev *sim.Device, rows []int64, maxPages int) int {
	var ids []int32
	for _, row := range rows {
		if maxPages > 0 && len(ids) == maxPages {
			break
		}
		if id := s.PageOf(row); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return s.PrefetchPages(dev, ids)
}

// TestNewRefusesNegativeOptions: a negative page size or budget is an error
// naming the field; zero means the default.
func TestNewRefusesNegativeOptions(t *testing.T) {
	src := testSource(rand.New(rand.NewSource(1)), 10, 4)
	for _, tc := range []struct {
		opts Options
		want string // "" for accepted
	}{
		{Options{}, ""},
		{Options{PageRows: -7}, "PageRows"},
		{Options{CacheBytes: -3 << 20}, "CacheBytes"},
		{Options{PageRows: 16, CacheBytes: -1}, "CacheBytes"},
	} {
		s, err := New(src, tc.opts)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v refused: %v", tc.opts, err)
		case tc.want == "" && (s.opts.PageRows != 256 || s.opts.CacheBytes != 256<<20):
			t.Errorf("%+v ran on %+v, want the defaults", tc.opts, s.opts)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: error %v, want one naming %s", tc.opts, err, tc.want)
		}
	}
}

// TestGatherRawBitExact: gathering through the paged store with the raw
// encoding returns the source rows bit-identically, in any order, across
// page boundaries and the partial last page.
func TestGatherRawBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, dim = 1000, 7
	src := testSource(rng, rows, dim)
	s, dev := newTestStore(t, src, Options{PageRows: 64}) // 1000/64: partial last page
	if s.NumPages() != 16 {
		t.Fatalf("pages = %d, want 16", s.NumPages())
	}
	idx := make([]int64, 300)
	for i := range idx {
		idx[i] = rng.Int63n(rows)
	}
	idx[0], idx[1] = rows-1, 0 // cover both extremes incl. partial page
	dst := make([]float32, len(idx)*dim)
	s.GatherRows(dev, idx, dim, dst, "test")
	for i, row := range idx {
		for j := 0; j < dim; j++ {
			want := src.Data[row*int64(dim)+int64(j)]
			got := dst[i*dim+j]
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("row %d col %d: %g != %g", row, j, got, want)
			}
		}
	}
}

// TestGatherChargesMissesThenHits: the first gather faults pages in (copy
// stream, UM cost) and a repeat of the same rows is served from the
// BlockCache — strictly cheaper, with the hit/miss counters moving.
func TestGatherChargesMissesThenHits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, dim = 512, 16
	src := testSource(rng, rows, dim)
	s, dev := newTestStore(t, src, Options{PageRows: 32})
	idx := []int64{0, 33, 65, 100, 200, 500}
	dst := make([]float32, len(idx)*dim)

	t0 := dev.Now()
	s.GatherRows(dev, idx, dim, dst, "test")
	missTime := dev.Now() - t0
	st := s.Stats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("first gather: %+v", st)
	}
	firstMisses := st.Misses

	t1 := dev.Now()
	s.GatherRows(dev, idx, dim, dst, "test")
	hitTime := dev.Now() - t1
	st = s.Stats()
	if st.Misses != firstMisses {
		t.Errorf("repeat gather faulted pages: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("repeat gather recorded no hits: %+v", st)
	}
	if hitTime >= missTime {
		t.Errorf("hit gather (%.3g s) not cheaper than miss gather (%.3g s)", hitTime, missTime)
	}
	if st.ResidentBytes > st.CacheBytes {
		t.Errorf("resident %d over budget %d", st.ResidentBytes, st.CacheBytes)
	}
}

// TestGatherEvictsUnderPressure: a budget far below the touched working
// set forces evictions while every gather still decodes correct values.
func TestGatherEvictsUnderPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, dim = 2048, 8
	src := testSource(rng, rows, dim)
	pageBytes := int64(64*dim*4) + 8
	s, err := New(src, Options{PageRows: 64, CacheBytes: 3 * pageBytes})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	dev := m.Devs[0]
	dst := make([]float32, dim)
	for i := 0; i < 400; i++ {
		row := rng.Int63n(rows)
		s.GatherRows(dev, []int64{row}, dim, dst, "test")
		for j := 0; j < dim; j++ {
			if dst[j] != src.Data[row*int64(dim)+int64(j)] {
				t.Fatalf("iter %d row %d: wrong value after eviction churn", i, row)
			}
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions under a 3-page budget")
	}
	if st.ResidentBytes > 3*pageBytes {
		t.Errorf("resident %d over 3-page budget %d", st.ResidentBytes, 3*pageBytes)
	}
}

// TestPerDeviceCaches: each attached device faults its own pages; one
// device's misses do not warm another's cache.
func TestPerDeviceCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := testSource(rng, 256, 4)
	s, _ := newTestStore(t, src, Options{PageRows: 32})
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...) // fresh devices; first Attach in helper used another machine
	d0, d1 := m.Devs[0], m.Devs[1]
	dst := make([]float32, 4)
	s.GatherRows(d0, []int64{0}, 4, dst, "t")
	s.GatherRows(d0, []int64{1}, 4, dst, "t") // same page: hit
	s.GatherRows(d1, []int64{2}, 4, dst, "t") // same page, other device: miss
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Errorf("cross-device stats: %+v", st)
	}
}

// TestStoreConcurrentGathers drives every device of one machine against
// the same store from real goroutines (the sim.RunParallel shape) — the
// -race regression test for the store's locking.
func TestStoreConcurrentGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, dim = 1024, 8
	src := testSource(rng, rows, dim)
	s, err := New(src, Options{PageRows: 32, CacheBytes: 8 * 1100})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	s.Attach(m.Devs...)
	sim.RunParallel(len(m.Devs), func(r int) {
		lr := rand.New(rand.NewSource(int64(r)))
		dst := make([]float32, 16*dim)
		idx := make([]int64, 16)
		for it := 0; it < 50; it++ {
			for i := range idx {
				idx[i] = lr.Int63n(rows)
			}
			s.GatherRows(m.Devs[r], idx, dim, dst, "t")
			for i, row := range idx {
				if dst[i*dim] != src.Data[row*int64(dim)] {
					t.Errorf("rank %d: wrong value for row %d", r, row)
					return
				}
			}
		}
	})
	st := s.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

// eagerRow decodes row of a page materialized whole from src in one pass
// — the reference a demand-materialized page must reproduce.
func eagerRow(s *Store, src *SliceSource, row int64, dst []float32) {
	lo, hi := s.tab.Span(s.PageOf(row))
	pg := encodePage(s.opts.Encoding, src.Data[lo*int64(src.D):hi*int64(src.D)], int(hi-lo), src.D)
	pg.decodeRow(s.opts.Encoding, int(row-lo), src.D, dst)
}

// TestDemandMaterializationMatchesEagerFill: whatever order rows are
// touched in — repeats, the partial last page, pages that arrived by
// prefetch, one-row gathers, all three encodings — every read decodes
// exactly what filling the whole page up front would have given.
func TestDemandMaterializationMatchesEagerFill(t *testing.T) {
	const rows, dim, pageRows = 1003, 6, 32 // 1003/32: partial last page
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			src := testSource(rng, rows, dim)
			pageBytes := int64(pageRows*dim*enc.BytesPerElem()) + 8
			s, dev := newTestStore(t, src, Options{Encoding: enc, PageRows: pageRows, CacheBytes: 5 * pageBytes})
			want := make([]float32, dim)
			check := func(what string, row int64, got []float32) {
				t.Helper()
				eagerRow(s, src, row, want)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%v seed %d %s row %d col %d: %g != eager %g", enc, seed, what, row, j, got[j], want[j])
					}
				}
			}
			for round := 0; round < 40; round++ {
				idx := make([]int64, 1+rng.Intn(24))
				for i := range idx {
					idx[i] = rng.Int63n(rows)
				}
				if rng.Intn(3) == 0 {
					idx[0] = rows - 1 - rng.Int63n(rows%pageRows) // partial page
				}
				if len(idx) > 2 {
					idx[len(idx)-1] = idx[0] // a repeat inside the batch
				}
				switch rng.Intn(3) {
				case 0:
					prefetchRows(s, dev, idx, rng.Intn(4))
					fallthrough
				case 1:
					dst := make([]float32, len(idx)*dim)
					s.GatherRows(dev, idx, dim, dst, "t")
					for i, row := range idx {
						check("gather", row, dst[i*dim:(i+1)*dim])
					}
				default:
					got := make([]float32, dim)
					for _, row := range idx {
						s.GatherRows(dev, []int64{row}, dim, got, "t")
						check("one-row gather", row, got)
					}
				}
			}
			if st := s.Stats(); st.Evictions == 0 || st.Hits == 0 {
				t.Fatalf("%v seed %d: test exercised no eviction or no hit: %+v", enc, seed, st)
			}
		}
	}
}

// TestRecycledPagesInsideOneGather: with a budget of one or two pages a
// single gather evicts pages it is still decoding from, and later faults
// reuse recycled buffers; every value must still match the source, on one
// device and on four driven concurrently (the -race surface).
func TestRecycledPagesInsideOneGather(t *testing.T) {
	const rows, dim, pageRows = 640, 8, 16
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		for _, budgetPages := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(9))
			src := testSource(rng, rows, dim)
			pageBytes := int64(pageRows*dim*enc.BytesPerElem()) + 8
			s, err := New(src, Options{Encoding: enc, PageRows: pageRows, CacheBytes: budgetPages * pageBytes})
			if err != nil {
				t.Fatal(err)
			}
			m := sim.NewMachine(sim.DGXA100(1))
			devs := m.Devs[:4]
			s.Attach(devs...)
			run := func(r int) {
				lr := rand.New(rand.NewSource(int64(100 + r)))
				idx := make([]int64, 48)
				dst := make([]float32, len(idx)*dim)
				want := make([]float32, dim)
				for it := 0; it < 30; it++ {
					for i := range idx {
						idx[i] = lr.Int63n(rows)
					}
					// Interleave two pages so each is needed again after
					// later misses have pushed it out of the cache.
					idx[0], idx[10], idx[20], idx[30], idx[40] = 0, 17, 1, 18, 2
					if it%3 == 0 {
						prefetchRows(s, devs[r], idx[5:], 3)
					}
					s.GatherRows(devs[r], idx, dim, dst, "t")
					for i, row := range idx {
						eagerRow(s, src, row, want)
						for j := range want {
							if math.Float32bits(dst[i*dim+j]) != math.Float32bits(want[j]) {
								t.Errorf("%v budget %d rank %d iter %d: row %d col %d wrong", enc, budgetPages, r, it, row, j)
								return
							}
						}
					}
				}
			}
			run(0)
			sim.RunParallel(len(devs), run)
			st := s.Stats()
			if st.Evictions == 0 {
				t.Fatalf("%v budget %d: no evictions: %+v", enc, budgetPages, st)
			}
			if st.ResidentBytes > int64(len(devs))*budgetPages*pageBytes {
				t.Errorf("%v budget %d: resident %d over budget", enc, budgetPages, st.ResidentBytes)
			}
		}
	}
}

// TestSteadyStateFaultingGatherAllocs: once the cache is full and the
// free list primed, a gather that faults and evicts on every page
// allocates nothing — page records, payload buffers, bitmaps and cache
// entries are all recycled. (The free list is capped at the cache's page
// count, so this holds for gathers that miss no more pages than that.)
func TestSteadyStateFaultingGatherAllocs(t *testing.T) {
	const rows, dim, pageRows = 4096, 16, 16
	rng := rand.New(rand.NewSource(10))
	src := testSource(rng, rows, dim)
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		pageBytes := int64(pageRows*dim*enc.BytesPerElem()) + 8
		s, dev := newTestStore(t, src, Options{Encoding: enc, PageRows: pageRows, CacheBytes: 16 * pageBytes})
		idx := make([]int64, 32)
		dst := make([]float32, len(idx)*dim)
		next := int64(0)
		gather := func() {
			for i := range idx { // 32 rows on 16 fresh pages: all misses
				idx[i] = next % rows
				next += pageRows / 2
			}
			s.GatherRows(dev, idx, dim, dst, "t")
		}
		for i := 0; i < 8; i++ {
			gather()
		}
		before := s.Stats()
		if avg := testing.AllocsPerRun(50, gather); avg != 0 {
			t.Errorf("%v: faulting gather allocates %.1f objects per call, want 0", enc, avg)
		}
		after := s.Stats()
		if after.Misses-before.Misses < 50*16 || after.Evictions == before.Evictions {
			t.Fatalf("%v: gathers did not fault and evict: %+v -> %+v", enc, before, after)
		}
	}
}

// TestStatsSumPerDeviceCaches: devices share nothing but the source, so on a
// run that faults, hits, prefetches, evicts and rejects on two devices the
// store's promoted counters equal the field-by-field sums over two
// one-device stores driven with each device's half of the run.
func TestStatsSumPerDeviceCaches(t *testing.T) {
	const rows, dim = 2048, 8
	src := testSource(rand.New(rand.NewSource(11)), rows, dim)
	pageBytes := int64(64*dim*4) + 8
	opts := Options{PageRows: 64, CacheBytes: 3 * pageBytes, Policy: blockcache.PolicyAdmit}
	// drive runs device slot's share of the 600 steps on dev.
	drive := func(s *Store, dev *sim.Device, slot int) {
		rng := rand.New(rand.NewSource(int64(12 + slot)))
		dst := make([]float32, dim)
		for i := slot; i < 600; i += 2 {
			if i%7 == 0 {
				prefetchRows(s, dev, []int64{rng.Int63n(rows)}, 1)
			}
			s.GatherRows(dev, []int64{rng.Int63n(rows / (1 + int64(i%3)))}, dim, dst, "test")
		}
	}
	both, err := New(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	both.Attach(m.Devs[:2]...)
	var hits, misses, evictions, prefetchHits, rejects, resident int64
	for slot := 0; slot < 2; slot++ {
		drive(both, m.Devs[slot], slot)
		one, dev := newTestStore(t, src, opts)
		drive(one, dev, slot)
		cs := one.Stats()
		hits += cs.Hits
		misses += cs.Misses
		evictions += cs.Evictions
		prefetchHits += cs.PrefetchHits
		rejects += cs.AdmissionRejects
		resident += cs.ResidentBytes
	}
	st := both.Stats()
	if st.Hits != hits || st.Misses != misses || st.Evictions != evictions ||
		st.PrefetchHits != prefetchHits || st.AdmissionRejects != rejects || st.ResidentBytes != resident {
		t.Errorf("Stats() = %+v, per-device sums: hits %d misses %d evictions %d prefetch hits %d rejects %d resident %d",
			st.CacheStats, hits, misses, evictions, prefetchHits, rejects, resident)
	}
	if hits == 0 || misses == 0 || evictions == 0 || prefetchHits == 0 || rejects == 0 || resident == 0 {
		t.Errorf("the run left a counter at zero, so its sum was not exercised: %+v", st.CacheStats)
	}
	if want := float64(hits) / float64(hits+misses); st.HitRate() != want {
		t.Errorf("HitRate() = %v, want %v", st.HitRate(), want)
	}
	// Two machine nodes page the same table: counters, devices and budgets
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

// TestGatherFanoutEquivalence: with the fill shared between two and four
// claimants a run of gathers — evicting, prefetching, repeating rows inside
// a batch, reading the partial last page — returns the bits, leaves every
// cache counter and stops both device clocks exactly where the inline fill
// (one worker, and sim.SetParallel(false)) does. Run under -race: pages, dst
// rows and the per-claimant staging buffers are the state the claimants
// must not share.
func TestGatherFanoutEquivalence(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	defer sim.SetParallel(sim.SetParallel(true))
	const rows, dim, pageRows, batch = 5003, 32, 16, 2100
	if blockcache.Claimants(4*batch*dim) != 1 {
		t.Fatal("one worker must fill inline")
	}
	src := testSource(rand.New(rand.NewSource(9)), rows, dim)
	type outcome struct {
		values        []uint32
		stats         Stats
		compute, copy float64
	}
	run := func(enc Encoding, policy blockcache.Policy) outcome {
		pageBytes := int64(pageRows*dim*enc.BytesPerElem() + pageMetaBytes)
		s, dev := newTestStore(t, src, Options{Encoding: enc, PageRows: pageRows, CacheBytes: 40 * pageBytes, Policy: policy})
		rng := rand.New(rand.NewSource(10))
		var out outcome
		idx := make([]int64, batch)
		dst := make([]float32, batch*dim)
		for it := 0; it < 3; it++ {
			for i := range idx {
				idx[i] = rng.Int63n(rows) / int64(1+it%2) // every other batch re-reads a hot half
			}
			idx[0], idx[1], idx[2] = rows-1, idx[3], 0
			prefetchRows(s, dev, idx[:64], 8)
			s.GatherRows(dev, idx, dim, dst, "t")
			for _, x := range dst {
				out.values = append(out.values, math.Float32bits(x))
			}
		}
		out.stats, out.compute, out.copy = s.Stats(), dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy)
		if out.stats.Evictions == 0 || out.stats.Hits == 0 || out.stats.PrefetchHits == 0 {
			t.Fatalf("%v/%v: the run left a path untaken: %v", enc, policy, out.stats)
		}
		return out
	}
	for _, enc := range []Encoding{Raw, Float16, Quant8} {
		for _, policy := range []blockcache.Policy{blockcache.PolicyLRU, blockcache.PolicyAdmit} {
			want := run(enc, policy)
			check := func(mode string) {
				t.Helper()
				got := run(enc, policy)
				if !slices.Equal(got.values, want.values) {
					t.Errorf("%v/%v %s: gathered values differ from the inline fill", enc, policy, mode)
				}
				if got.stats != want.stats || got.compute != want.compute || got.copy != want.copy {
					t.Errorf("%v/%v %s: stats %+v clocks %v/%v, inline %+v clocks %v/%v",
						enc, policy, mode, got.stats, got.compute, got.copy, want.stats, want.compute, want.copy)
				}
			}
			for _, w := range []int{2, 4} {
				tensor.SetWorkers(w)
				if blockcache.Claimants(4*batch*dim) != w {
					t.Fatalf("a %d-row gather is below the fan-out cutoff", batch)
				}
				check(fmt.Sprintf("%d workers", w))
			}
			sim.SetParallel(false)
			check("SetParallel(false)")
			sim.SetParallel(true)
			tensor.SetWorkers(1)
		}
	}
}
