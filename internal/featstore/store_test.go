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

func randMatrix(rng *rand.Rand, rows, dim int) []float32 {
	m := make([]float32, rows*dim)
	for i := range m {
		// Mix magnitudes and signs, with occasional exact zeros and
		// denormal-ish values.
		switch rng.Intn(8) {
		case 0:
			m[i] = 0
		case 1:
			m[i] = float32(rng.NormFloat64()) * 1e-20
		case 2:
			m[i] = float32(rng.NormFloat64()) * 1e6
		default:
			m[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

// checkRows fails unless got holds, row after row, the source bits of rows.
func checkRows(t *testing.T, what string, src *SliceSource, rows []int64, got []float32) {
	t.Helper()
	dim := int64(src.D)
	for i, row := range rows {
		for j, want := range src.Data[row*dim : (row+1)*dim] {
			if g := got[int64(i)*dim+int64(j)]; math.Float32bits(g) != math.Float32bits(want) {
				t.Fatalf("%s: row %d col %d: %#08x, source %#08x", what, row, j, math.Float32bits(g), math.Float32bits(want))
			}
		}
	}
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

// TestNewRefusesNegativeOptions: a negative page size or budget, or a page
// format other than Raw, is an error naming the field; zero means the
// default.
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
		{Options{Encoding: 1}, "Encoding"},
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

// TestGatherRawBitExact: gathering through the paged store returns the
// source rows bit-identically, in any order, across page boundaries and the
// partial last page.
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
	checkRows(t, "gather", src, idx, dst)
}

// TestRawRoundtripBitExact: over random shapes — tiny tables, one-row and
// partial pages, widths from 1 to 24 — every row comes back with its source
// bits on first touch and again from the resident page.
func TestRawRoundtripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows, dim := 1+rng.Intn(40), 1+rng.Intn(24)
		src := testSource(rng, rows, dim)
		s, dev := newTestStore(t, src, Options{PageRows: 1 + rng.Intn(8)})
		dst := make([]float32, dim)
		for pass := 0; pass < 2; pass++ {
			for row := int64(0); row < int64(rows); row++ {
				s.GatherRows(dev, []int64{row}, dim, dst, "t")
				checkRows(t, fmt.Sprintf("trial %d pass %d", trial, pass), src, []int64{row}, dst)
			}
		}
	}
}

// TestZeroRowPage: a store over no rows has no pages and no table bytes, and
// a gather of no rows charges an empty read.
func TestZeroRowPage(t *testing.T) {
	s, dev := newTestStore(t, &SliceSource{D: 16}, Options{})
	if st := s.Stats(); s.NumPages() != 0 || st.Pages != 0 || st.TableBytes != 0 {
		t.Errorf("zero-row store: %d pages, %+v", s.NumPages(), st)
	}
	s.GatherRows(dev, nil, 16, nil, "t")
	if st := s.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("a gather of no rows looked pages up: %+v", st)
	}
}

// TestParseEncoding: the raw format's three spellings parse; every other
// name, the retired lossy ones included, is an error.
func TestParseEncoding(t *testing.T) {
	for _, in := range []string{"", "raw", "float32"} {
		if got, err := ParseEncoding(in); err != nil || got != Raw {
			t.Errorf("ParseEncoding(%q) = %v, %v; want Raw", in, got, err)
		}
	}
	for _, in := range []string{"f16", "q8", "zstd", "RAW"} {
		if _, err := ParseEncoding(in); err == nil {
			t.Errorf("ParseEncoding(%q) accepted", in)
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
// set forces evictions while every gather still returns correct values.
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

// TestDemandMaterializationMatchesEagerFill: whatever order rows are
// touched in — repeats, the partial last page, pages that arrived by
// prefetch, one-row gathers — every read returns exactly the source row that
// filling the whole page up front would have copied.
func TestDemandMaterializationMatchesEagerFill(t *testing.T) {
	const rows, dim, pageRows = 1003, 6, 32 // 1003/32: partial last page
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := testSource(rng, rows, dim)
		pageBytes := int64(pageRows*dim*4) + 8
		s, dev := newTestStore(t, src, Options{PageRows: pageRows, CacheBytes: 5 * pageBytes})
		check := func(what string, row int64, got []float32) {
			t.Helper()
			checkRows(t, fmt.Sprintf("seed %d %s", seed, what), src, []int64{row}, got)
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
			t.Fatalf("seed %d: test exercised no eviction or no hit: %+v", seed, st)
		}
	}
}

// TestRecycledPagesInsideOneGather: with a budget of one or two pages a
// single gather evicts pages it is still copying from, and later faults
// reuse recycled buffers; every value must still match the source, on one
// device and on four driven concurrently (the -race surface).
func TestRecycledPagesInsideOneGather(t *testing.T) {
	const rows, dim, pageRows = 640, 8, 16
	for _, budgetPages := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(9))
		src := testSource(rng, rows, dim)
		pageBytes := int64(pageRows*dim*4) + 8
		s, err := New(src, Options{PageRows: pageRows, CacheBytes: budgetPages * pageBytes})
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
					if !slices.Equal(dst[i*dim:(i+1)*dim], src.Data[row*dim:(row+1)*dim]) {
						t.Errorf("budget %d rank %d iter %d: row %d wrong", budgetPages, r, it, row)
						return
					}
				}
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

// TestSteadyStateFaultingGatherAllocs: once the cache is full and the
// free list primed, a gather that faults and evicts on every page
// allocates nothing — page records, payload buffers, bitmaps and cache
// entries are all recycled. (The free list is capped at the cache's page
// count, so this holds for gathers that miss no more pages than that.)
func TestSteadyStateFaultingGatherAllocs(t *testing.T) {
	const rows, dim, pageRows = 4096, 16, 16
	rng := rand.New(rand.NewSource(10))
	src := testSource(rng, rows, dim)
	pageBytes := int64(pageRows*dim*4) + 8
	s, dev := newTestStore(t, src, Options{PageRows: pageRows, CacheBytes: 16 * pageBytes})
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
		t.Errorf("faulting gather allocates %.1f objects per call, want 0", avg)
	}
	after := s.Stats()
	if after.Misses-before.Misses < 50*16 || after.Evictions == before.Evictions {
		t.Fatalf("gathers did not fault and evict: %+v -> %+v", before, after)
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
}

// TestGatherFanoutEquivalence: with the fill shared between two and four
// claimants a run of gathers — evicting, prefetching, repeating rows inside
// a batch, reading the partial last page — returns the bits, leaves every
// cache counter and stops both device clocks exactly where the inline fill
// (one worker, and sim.SetParallel(false)) does. Run under -race: pages,
// their bitmaps and dst rows are the state the claimants must not share.
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
		stats         blockcache.Stats
		compute, copy float64
	}
	run := func(policy blockcache.Policy) outcome {
		pageBytes := int64(pageRows*dim*4 + pageMetaBytes)
		s, dev := newTestStore(t, src, Options{PageRows: pageRows, CacheBytes: 40 * pageBytes, Policy: policy})
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
			t.Fatalf("%v: the run left a path untaken: %v", policy, out.stats)
		}
		return out
	}
	for _, policy := range []blockcache.Policy{blockcache.PolicyLRU, blockcache.PolicyAdmit} {
		want := run(policy)
		check := func(mode string) {
			t.Helper()
			got := run(policy)
			if !slices.Equal(got.values, want.values) {
				t.Errorf("%v %s: gathered values differ from the inline fill", policy, mode)
			}
			if got.stats != want.stats || got.compute != want.compute || got.copy != want.copy {
				t.Errorf("%v %s: stats %+v clocks %v/%v, inline %+v clocks %v/%v",
					policy, mode, got.stats, got.compute, got.copy, want.stats, want.compute, want.copy)
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

// FuzzGatherRows drives gathers over arbitrary float32 bit patterns — NaN
// payloads, ±Inf, ±0, denormals — with random page sizes, budgets of one to
// four pages and random row lists (duplicates, rows on several pages, any
// order), each list gathered twice. Whatever the bits, every gathered row is
// its source row bit for bit: on first touch, from a resident page and after
// the page was evicted and produced again; and every gather looks each
// distinct page it reads up exactly once (Hits+Misses).
func FuzzGatherRows(f *testing.F) {
	le := func(vals ...uint32) []byte {
		var b []byte
		for _, v := range vals {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return b
	}
	f.Add(le(0x3f800000, 0xbf800000, 0x40490fdb, 0x00000000), uint8(5), uint8(3), uint8(2), uint8(0), []byte{4, 0, 3, 3, 1})
	f.Add(le(0x7fc00001, 0xffc12345, 0x7f800000, 0xff800000, 0x80000000), uint8(7), uint8(2), uint8(3), uint8(1), []byte{6, 6, 2, 0, 5, 1, 3}) // NaN payloads, ±Inf, -0
	f.Add(le(0x00000001, 0x807fffff, 0x00800000, 0x7f7fffff, 0xff7fffff), uint8(9), uint8(4), uint8(1), uint8(3), []byte{8, 0, 8, 7, 2, 9, 4}) // denormals, extremes
	f.Add(le(0x42280000), uint8(39), uint8(8), uint8(15), uint8(2), []byte{39, 0, 17, 38, 16, 1, 20, 33, 2})                                   // one value, partial last page
	f.Fuzz(func(t *testing.T, raw []byte, nRows, nDim, nPage, nBudget uint8, order []byte) {
		rows, dim, pageRows := 1+int(nRows)%40, 1+int(nDim)%9, 1+int(nPage)%16
		if len(raw) < 4 {
			raw = append(raw, 0, 0, 0, 0)
		}
		src := &SliceSource{Data: make([]float32, rows*dim), D: dim}
		for i := range src.Data {
			o := 4 * (i % (len(raw) / 4))
			bits := uint32(raw[o]) | uint32(raw[o+1])<<8 | uint32(raw[o+2])<<16 | uint32(raw[o+3])<<24
			src.Data[i] = math.Float32frombits(bits + uint32(i/(len(raw)/4))) // later repeats differ
		}
		pageBytes := int64(pageRows*dim*4 + pageMetaBytes)
		s, dev := newTestStore(t, src, Options{PageRows: pageRows, CacheBytes: (1 + int64(nBudget)%4) * pageBytes})
		// Cut order into lists of one to seven rows; the list lengths come
		// from the bytes as well.
		var lists [][]int64
		for len(order) > 0 {
			n := min(1+int(order[0])%7, len(order))
			list := make([]int64, n)
			for i, b := range order[:n] {
				list[i] = int64(b) % int64(rows)
			}
			lists, order = append(lists, list), order[n:]
		}
		lookups := int64(0)
		for pass := 0; pass < 2; pass++ {
			for _, list := range lists {
				dst := make([]float32, len(list)*dim)
				s.GatherRows(dev, list, dim, dst, "t")
				checkRows(t, fmt.Sprintf("pass %d list %v", pass, list), src, list, dst)
				var pages []int32
				for _, row := range list {
					if id := s.PageOf(row); !slices.Contains(pages, id) {
						pages = append(pages, id)
					}
				}
				lookups += int64(len(pages))
			}
		}
		if st := s.Stats(); st.Hits+st.Misses != lookups {
			t.Fatalf("%d hits + %d misses, but the gathers read %d distinct pages", st.Hits, st.Misses, lookups)
		}
	})
}
