// Package blockcache is the paged half of the out-of-core stores,
// internal/featstore (encoded feature pages) and internal/topostore (decoded
// CSR column ranges). BlockCache is the byte-budgeted per-device page cache
// — plain LRU replacement plus an opt-in TinyLFU-style frequency-sketch
// admission policy, with hit/miss/eviction/prefetch/admission counters —
// and Table (table.go) is everything the stores do with it: residency per
// device, the access batch, the Unified-Memory fault service, prefetch and
// page recycling.
package blockcache

import (
	"fmt"
	"sync"
)

// Block is a cacheable page payload. CacheBytes is the resident
// footprint charged against the cache budget.
type Block interface {
	CacheBytes() int64
}

// Policy selects the BlockCache replacement/admission policy.
type Policy uint8

// The supported cache policies.
const (
	// PolicyLRU is plain least-recently-used eviction: every faulted page
	// is admitted and the coldest resident page is evicted under pressure.
	PolicyLRU Policy = iota
	// PolicyAdmit adds a TinyLFU-style frequency-sketch admission test on
	// top of LRU: under eviction pressure a candidate page is admitted
	// only if its estimated access frequency exceeds the eviction
	// victim's, so one cold scan cannot flush the hot set. Rejected pages
	// are still served to the requesting gather (the transient copy is
	// used once and dropped), so results never depend on the policy.
	PolicyAdmit
)

// String names the policy as the CLI flags spell it.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyAdmit:
		return "admit"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy resolves a CLI spelling of a cache policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "admit", "tinylfu":
		return PolicyAdmit, nil
	}
	return PolicyLRU, fmt.Errorf("blockcache: unknown cache policy %q (want lru or admit)", s)
}

// BlockCache is a byte-budgeted page cache, one per attached device (it
// models that GPU's HBM page pool). Replacement is LRU; PolicyAdmit fronts
// insertion with a frequency-sketch admission test. It is mutex-guarded:
// the store itself is shared read-only across workers, but each device's
// cache mutates on every gather, and sim.RunParallel drives devices from
// separate goroutines.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	sketch   *freqSketch
	entries  map[int32]*blockEntry
	// Doubly-linked LRU list threaded through the entries; head is the
	// most recently used, tail the eviction candidate.
	head, tail *blockEntry
	// spare chains evicted entries (through next) for the next insert, so
	// steady-state eviction churn allocates no entries.
	spare *blockEntry

	hits, misses, evictions        int64
	prefetchHits, admissionRejects int64
}

type blockEntry struct {
	id int32
	b  Block
	// prefetched marks an entry inserted ahead of demand; the first
	// demand Get that lands on it counts as a prefetch hit.
	prefetched bool
	prev, next *blockEntry
}

// NewBlockCache creates a cache under policy p bounded to capacityBytes of
// page payload (plus fixed per-page metadata). A single page larger than the
// budget is still admitted — gathers must be able to proceed — so the
// effective floor is one page.
func NewBlockCache(capacityBytes int64, p Policy) *BlockCache {
	c := &BlockCache{capacity: capacityBytes, entries: make(map[int32]*blockEntry)}
	if p == PolicyAdmit {
		c.sketch = newFreqSketch()
	}
	return c
}

// Get returns the cached block and promotes it to most-recently-used, or
// nil on a miss. Hit/miss counters track demand lookups; with PolicyAdmit
// every lookup also feeds the frequency sketch, so repeatedly-missed pages
// build up the estimate that eventually admits them.
func (c *BlockCache) Get(id int32) Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sketch != nil {
		c.sketch.record(id)
	}
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	if e.prefetched {
		c.prefetchHits++
		e.prefetched = false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.b
}

// Contains reports residency without touching any counter, promotion or
// sketch state — the prefetcher's probe.
func (c *BlockCache) Contains(id int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Put inserts a freshly faulted-in block as most-recently-used and evicts
// from the LRU tail until the budget holds (never evicting the new block
// itself). Under PolicyAdmit an insert that would evict is first tested
// against the frequency sketch: if the eviction victim is estimated
// hotter than the candidate, the candidate is rejected (returns false)
// and the resident set is untouched. Callers keep using their transient
// copy of a rejected block, so rejection changes cache contents only.
//
// Every block the call leaves outside the cache — the evicted victims, or
// b itself when it was rejected or lost to an already-resident copy — is
// appended to *dropped (when non-nil), so the owning store can reuse the
// buffers once nothing reads them any more.
func (c *BlockCache) Put(id int32, b Block, dropped *[]Block) bool {
	return c.insert(id, b, false, dropped)
}

// PutPrefetched is Put for pages faulted ahead of demand: the entry is
// marked so the first demand Get on it counts as a prefetch hit.
func (c *BlockCache) PutPrefetched(id int32, b Block, dropped *[]Block) bool {
	return c.insert(id, b, true, dropped)
}

func (c *BlockCache) insert(id int32, b Block, prefetched bool, dropped *[]Block) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	drop := func(b Block) {
		if dropped != nil {
			*dropped = append(*dropped, b)
		}
	}
	if e, ok := c.entries[id]; ok {
		// Another worker faulted the page in between our Get and Put;
		// keep the resident copy (identical bytes — page production is
		// deterministic) and just promote it.
		c.unlink(e)
		c.pushFront(e)
		drop(b)
		return true
	}
	if c.sketch != nil && c.tail != nil && c.bytes+b.CacheBytes() > c.capacity {
		// Admission test under eviction pressure: the candidate must beat
		// the victim it would displace.
		if c.sketch.estimate(c.tail.id) > c.sketch.estimate(id) {
			c.admissionRejects++
			drop(b)
			return false
		}
	}
	e := c.spare
	if e != nil {
		c.spare = e.next
		*e = blockEntry{id: id, b: b, prefetched: prefetched}
	} else {
		e = &blockEntry{id: id, b: b, prefetched: prefetched}
	}
	c.entries[id] = e
	c.pushFront(e)
	c.bytes += b.CacheBytes()
	for c.bytes > c.capacity && c.tail != nil && c.tail != e {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.id)
		c.bytes -= victim.b.CacheBytes()
		c.evictions++
		drop(victim.b)
		*victim = blockEntry{next: c.spare}
		c.spare = victim
	}
	return true
}

func (c *BlockCache) pushFront(e *blockEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *BlockCache) unlink(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// CacheStats is a point-in-time snapshot of one BlockCache, or — through Add
// — the sum over several. It is the one statement of the page-cache counters:
// featstore.Stats and topostore.Stats embed it, the trainer and the bench
// totals add it up, and every CLI prints its String.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// PrefetchHits counts demand lookups served by a page that a prefetch
	// faulted in ahead of time (each prefetched page counts at most once).
	PrefetchHits int64 `json:"prefetch_hits"`
	// AdmissionRejects counts candidate pages the PolicyAdmit sketch kept
	// out of the resident set. Always zero under PolicyLRU.
	AdmissionRejects int64 `json:"admission_rejects"`
	ResidentBytes    int64 `json:"resident_bytes"`
	ResidentPages    int   `json:"resident_pages"`
	CapacityBytes    int64 `json:"capacity_bytes"`
	// PagesAllocated counts the pages a Table ever made for its caches,
	// resident or recycling (zero for a bare BlockCache). A count that keeps
	// growing between epochs is a page pool that has not reached a steady
	// state.
	PagesAllocated int64 `json:"pages_allocated"`
}

// Add accumulates o into s.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.PrefetchHits += o.PrefetchHits
	s.AdmissionRejects += o.AdmissionRejects
	s.ResidentBytes += o.ResidentBytes
	s.ResidentPages += o.ResidentPages
	s.CapacityBytes += o.CapacityBytes
	s.PagesAllocated += o.PagesAllocated
}

// HitRate returns the fraction of page lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String is the counters' one-line report.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d page hits / %d misses (%.1f%% hit rate), %d evictions, %d prefetch hits, %d admission rejects, %.1f MiB resident",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.PrefetchHits, s.AdmissionRejects,
		float64(s.ResidentBytes)/(1<<20))
}

// Stats snapshots the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		PrefetchHits: c.prefetchHits, AdmissionRejects: c.admissionRejects,
		ResidentBytes: c.bytes, ResidentPages: len(c.entries),
		CapacityBytes: c.capacity,
	}
}
