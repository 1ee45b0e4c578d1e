package blockcache

import "testing"

// TestAdmissionHotSetSurvivesScan is the property TinyLFU admission
// exists for: a hot working set that fits the budget must survive a long
// one-touch cold scan. Under plain LRU the same scan flushes it.
func TestAdmissionHotSetSurvivesScan(t *testing.T) {
	const (
		hotPages = 8
		scanLen  = 400
	)
	run := func(p Policy) (survived int, st CacheStats) {
		c := NewBlockCache(hotPages*108, p)
		// Establish the hot set with repeated touches.
		for round := 0; round < 20; round++ {
			for id := int32(0); id < hotPages; id++ {
				if c.Get(id) == nil {
					c.Put(id, testPage(100), nil)
				}
			}
		}
		// One-touch cold scan over pages the workload never revisits.
		for i := 0; i < scanLen; i++ {
			id := int32(1000 + i)
			if c.Get(id) == nil {
				c.Put(id, testPage(100), nil)
			}
		}
		for id := int32(0); id < hotPages; id++ {
			if c.Contains(id) {
				survived++
			}
		}
		return survived, c.Stats()
	}

	gotAdmit, stAdmit := run(PolicyAdmit)
	if gotAdmit != hotPages {
		t.Errorf("PolicyAdmit: %d/%d hot pages survived the cold scan", gotAdmit, hotPages)
	}
	if stAdmit.AdmissionRejects == 0 {
		t.Error("PolicyAdmit: cold scan recorded no admission rejects")
	}
	gotLRU, stLRU := run(PolicyLRU)
	if gotLRU != 0 {
		t.Errorf("PolicyLRU: %d hot pages survived a scan longer than the budget", gotLRU)
	}
	if stLRU.AdmissionRejects != 0 {
		t.Errorf("PolicyLRU: admission rejects %d != 0", stLRU.AdmissionRejects)
	}
}

// TestAdmissionColdPageEventuallyAdmitted: a page that keeps being
// demanded builds sketch frequency and is eventually admitted past an
// equally-warm victim — admission must not permanently starve new pages.
func TestAdmissionColdPageEventuallyAdmitted(t *testing.T) {
	c := NewBlockCache(2*108, PolicyAdmit)
	for round := 0; round < 4; round++ {
		for id := int32(0); id < 2; id++ {
			if c.Get(id) == nil {
				c.Put(id, testPage(100), nil)
			}
		}
	}
	admitted := false
	for i := 0; i < 10 && !admitted; i++ {
		if c.Get(99) == nil {
			admitted = c.Put(99, testPage(100), nil)
		} else {
			admitted = true
		}
	}
	if !admitted {
		t.Error("repeatedly-demanded page never admitted")
	}
}

// TestAdmissionDeterministic: the sketch and cache are pure functions of
// the op sequence — two caches fed the same accesses agree on counters
// and on the resident set.
func TestAdmissionDeterministic(t *testing.T) {
	mk := func() *BlockCache { return NewBlockCache(16*108, PolicyAdmit) }
	a, b := mk(), mk()
	x := uint64(12345)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		id := int32(x % 64)
		for _, c := range []*BlockCache{a, b} {
			if c.Get(id) == nil {
				c.Put(id, testPage(100), nil)
			}
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Errorf("diverged: %+v vs %+v", sa, sb)
	}
	for id := int32(0); id < 64; id++ {
		if a.Contains(id) != b.Contains(id) {
			t.Errorf("resident sets diverge at page %d", id)
		}
	}
}

// TestPrefetchHitCounting: a prefetched page counts one PrefetchHit on
// its first demand Get only; Contains never counts anything.
func TestPrefetchHitCounting(t *testing.T) {
	c := NewBlockCache(1000, PolicyLRU)
	if !c.PutPrefetched(5, testPage(100), nil) {
		t.Fatal("prefetched page not admitted")
	}
	if c.Contains(5) != true {
		t.Fatal("prefetched page not resident")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.PrefetchHits != 0 {
		t.Fatalf("Contains touched counters: %+v", st)
	}
	if c.Get(5) == nil {
		t.Fatal("prefetched page missing on demand")
	}
	c.Get(5)
	st := c.Stats()
	if st.PrefetchHits != 1 {
		t.Errorf("prefetch hits %d != 1", st.PrefetchHits)
	}
	if st.Hits != 2 {
		t.Errorf("hits %d != 2", st.Hits)
	}
}
