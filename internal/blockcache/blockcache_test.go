package blockcache

import (
	"sync"
	"testing"
)

// testBlock mirrors the stores' pages: payload bytes plus 8 of metadata.
type testBlock struct{ payload int64 }

func (b testBlock) CacheBytes() int64 { return b.payload + 8 }

func testPage(bytes int) Block { return testBlock{int64(bytes)} }

func TestBlockCacheLRU(t *testing.T) {
	// Each page costs 100 data bytes + 8 metadata; capacity fits 3.
	c := NewBlockCache(330, PolicyLRU)
	for id := int32(0); id < 3; id++ {
		if c.Get(id) != nil {
			t.Fatalf("page %d resident before put", id)
		}
		c.Put(id, testPage(100), nil)
	}
	st := c.Stats()
	if st.ResidentPages != 3 || st.Misses != 3 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("after fill: %+v", st)
	}
	// Touch 0 so 1 becomes LRU; inserting 3 must evict 1.
	if c.Get(0) == nil {
		t.Fatal("page 0 missing")
	}
	c.Put(3, testPage(100), nil)
	if c.Get(1) != nil {
		t.Error("LRU page 1 not evicted")
	}
	for _, id := range []int32{0, 2, 3} {
		if c.Get(id) == nil {
			t.Errorf("page %d evicted unexpectedly", id)
		}
	}
	st = c.Stats()
	if st.Evictions != 1 || st.ResidentPages != 3 {
		t.Errorf("after eviction: %+v", st)
	}
	if st.ResidentBytes != 3*108 {
		t.Errorf("resident bytes %d != %d", st.ResidentBytes, 3*108)
	}
}

// TestBlockCacheOversizedPage: a single page above the budget is admitted
// (gathers must proceed) and evicts everything else.
func TestBlockCacheOversizedPage(t *testing.T) {
	c := NewBlockCache(200, PolicyLRU)
	c.Put(0, testPage(100), nil)
	c.Put(1, testPage(500), nil)
	if c.Get(1) == nil {
		t.Error("oversized page not admitted")
	}
	if c.Get(0) != nil {
		t.Error("page 0 survived an over-budget insert")
	}
}

// TestBlockCacheDoublePut: a racing second put of the same page keeps the
// resident copy and does not double-count bytes.
func TestBlockCacheDoublePut(t *testing.T) {
	c := NewBlockCache(1000, PolicyLRU)
	c.Put(7, testPage(100), nil)
	c.Put(7, testPage(100), nil)
	st := c.Stats()
	if st.ResidentPages != 1 || st.ResidentBytes != 108 {
		t.Errorf("double put: %+v", st)
	}
}

// TestBlockCacheConcurrent hammers one cache from many goroutines; run
// under -race (scripts/check.sh) this is the regression test for the
// cache's locking. Invariants checked after the join: counters add up and
// the resident set respects the budget.
func TestBlockCacheConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
		pages   = 64
	)
	c := NewBlockCache(20*108, PolicyLRU) // ~20 resident of 64 hot pages
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			x := uint64(seed)*2654435761 + 1
			for i := 0; i < ops; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				id := int32(x % pages)
				if c.Get(id) == nil {
					c.Put(id, testPage(100), nil)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*ops {
		t.Errorf("lookups %d != %d", st.Hits+st.Misses, workers*ops)
	}
	if st.ResidentBytes > 20*108 {
		t.Errorf("resident %d over budget", st.ResidentBytes)
	}
	if st.ResidentPages == 0 {
		t.Error("cache empty after hammer")
	}
}

// TestPutHandsBackDroppedBlocks: every block a Put leaves outside the
// cache — LRU victims, a duplicate, an admission-rejected candidate —
// comes back through dropped exactly once, and nothing resident does.
func TestPutHandsBackDroppedBlocks(t *testing.T) {
	c := NewBlockCache(330, PolicyLRU) // fits three 100-byte pages
	var dropped []Block
	for id := int32(0); id < 3; id++ {
		c.Put(id, testBlock{100 + int64(id)}, &dropped)
	}
	if len(dropped) != 0 {
		t.Fatalf("fill dropped %v", dropped)
	}
	c.Put(3, testBlock{103}, &dropped) // evicts page 0
	c.Put(3, testBlock{999}, &dropped) // duplicate: the new copy is not kept
	// A page worth two evicts the two LRU victims.
	c.PutPrefetched(4, testBlock{208}, &dropped)
	want := []Block{testBlock{100}, testBlock{999}, testBlock{101}, testBlock{102}}
	if len(dropped) != len(want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	for i := range want {
		if dropped[i] != want[i] {
			t.Fatalf("dropped %v, want %v", dropped, want)
		}
	}

	a := NewBlockCache(216, PolicyAdmit) // fits two
	for i := 0; i < 5; i++ {
		a.Get(0)
		a.Get(1)
	}
	a.Put(0, testBlock{100}, nil)
	a.Put(1, testBlock{100}, nil)
	dropped = dropped[:0]
	a.Get(2)
	if a.Put(2, testBlock{102}, &dropped) {
		t.Fatal("cold candidate admitted over a hot victim")
	}
	if len(dropped) != 1 || dropped[0] != (testBlock{102}) {
		t.Fatalf("rejected candidate not handed back: %v", dropped)
	}
}

// TestEvictionChurnAllocatesNothing: in steady state an insert reuses the
// entry of the block it evicts.
func TestEvictionChurnAllocatesNothing(t *testing.T) {
	c := NewBlockCache(4*108, PolicyLRU)
	blocks := make([]Block, 64)
	for i := range blocks {
		blocks[i] = &testBlock{100}
	}
	dropped := make([]Block, 0, 8)
	id := int32(0)
	put := func() {
		dropped = dropped[:0]
		c.Put(id, blocks[id%64], &dropped)
		id++
	}
	for i := 0; i < 16; i++ {
		put()
	}
	if avg := testing.AllocsPerRun(200, put); avg != 0 {
		t.Errorf("evicting insert allocates %.1f objects, want 0", avg)
	}
}

// TestCacheStatsAddHitRateString: Add sums every field, HitRate is hits over
// lookups (0 when there were none), String is the one-line report the CLIs
// print.
func TestCacheStatsAddHitRateString(t *testing.T) {
	a := CacheStats{Hits: 1, Misses: 3, Evictions: 5, PrefetchHits: 7, AdmissionRejects: 11,
		ResidentBytes: 3 << 19, ResidentPages: 13, CapacityBytes: 17}
	var sum CacheStats
	if sum.HitRate() != 0 {
		t.Errorf("empty HitRate = %v", sum.HitRate())
	}
	sum.Add(a)
	sum.Add(a)
	want := CacheStats{Hits: 2, Misses: 6, Evictions: 10, PrefetchHits: 14, AdmissionRejects: 22,
		ResidentBytes: 3 << 20, ResidentPages: 26, CapacityBytes: 34}
	if sum != want {
		t.Errorf("Add twice = %+v, want %+v", sum, want)
	}
	if sum.HitRate() != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", sum.HitRate())
	}
	const line = "2 page hits / 6 misses (25.0% hit rate), 10 evictions, 14 prefetch hits, 22 admission rejects, 3.0 MiB resident"
	if sum.String() != line {
		t.Errorf("String() = %q, want %q", sum.String(), line)
	}
}

// TestStatsAddString: Add folds machine nodes that page one table — the
// first node's shape stands, budgets, devices and counters sum, a zero Stats
// (a node whose table is resident) adds nothing — and String is the one-line
// report the CLIs print.
func TestStatsAddString(t *testing.T) {
	node := Stats{Name: "featstore", Unit: "rows", PageItems: 16, Pages: 9, TableBytes: 4608,
		CacheBytes: 3 << 19, Devices: 8, Policy: "lru", CacheStats: CacheStats{Hits: 1, Misses: 3, ResidentBytes: 1 << 20}}
	var sum Stats
	sum.Add(Stats{})
	sum.Add(node)
	sum.Add(node)
	want := node
	want.CacheBytes, want.Devices = 3<<20, 16
	want.CacheStats.Add(node.CacheStats)
	if sum != want {
		t.Errorf("Add twice = %+v, want %+v", sum, want)
	}
	const line = "featstore (16 rows/page, lru): 2 page hits / 6 misses (25.0% hit rate), 0 evictions, 0 prefetch hits, 0 admission rejects, 2.0 MiB resident of 3.0 MiB budget"
	if sum.String() != line {
		t.Errorf("String() = %q, want %q", sum.String(), line)
	}
}
