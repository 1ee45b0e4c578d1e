package blockcache

import (
	"math/rand"
	"strings"
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// tablePage is the page of the table suite: one uint32 value per item, of
// which the table itself looks at none.
type tablePage = Page[uint32]

const tableItemBytes, tableMetaBytes = 4, 12

// tablePageBytes is the footprint of a full 10-item page.
const tablePageBytes = 10*tableItemBytes + tableMetaBytes

// newTestTable pages 1003 items 10 to a page (a partial last page) under a
// budget of budgetPages full pages per device, attached to every device of a
// fresh DGX node. Every page take hands out is appended to *log when log is
// non-nil.
func newTestTable(policy Policy, budgetPages int64, log *[]*tablePage) (*Table[uint32], []*sim.Device) {
	t := NewTable[uint32](Shape{
		Name: "test", Unit: "items", Items: 1003, PageItems: 10,
		ItemVals: 1, ItemBytes: tableItemBytes, MetaBytes: tableMetaBytes, Granule: 1,
		CacheBytes: budgetPages * tablePageBytes, Policy: policy,
	})
	if log != nil {
		t.onTake = func(pg *tablePage) { *log = append(*log, pg) }
	}
	devs := sim.NewMachine(sim.DGXA100(1)).Devs
	t.Attach(devs...)
	return t, devs
}

// demand runs one whole batch over ids and returns the pages faulted.
func demand(t *Table[uint32], dev *sim.Device, ids ...int32) int {
	b := t.Begin(dev)
	for _, id := range ids {
		b.Page(id)
	}
	n := b.Flush()
	b.End()
	return n
}

func TestTableShape(t *testing.T) {
	tab, _ := newTestTable(PolicyLRU, 4, nil)
	if tab.NumPages() != 101 || tab.Devices() != 8 {
		t.Fatalf("pages %d devices %d", tab.NumPages(), tab.Devices())
	}
	if lo, hi := tab.Span(100); lo != 1000 || hi != 1003 {
		t.Errorf("last page spans [%d,%d)", lo, hi)
	}
	if tab.PageOf(999) != 99 || tab.PageOf(1000) != 100 {
		t.Error("PageOf disagrees with Span")
	}
	if max := tab.batches[0].spare.Max; max != 5 {
		t.Errorf("free list keeps %d pages, want budget pages + 1 = 5", max)
	}
}

// TestPageLayout: a page holds its items' values and one bit per granule,
// sized for the partial last page too; its footprint is the items' payload
// plus the page metadata; a recycled page comes back with every granule
// unproduced. Stats reports the shape beside the counters.
func TestPageLayout(t *testing.T) {
	tab := NewTable[uint64](Shape{
		Name: "cols", Unit: "edges", Items: 5000, PageItems: 4200,
		ItemVals: 2, ItemBytes: 16, MetaBytes: 16, Granule: 64,
		CacheBytes: 1, Policy: PolicyLRU, // one page: every miss recycles the last
	})
	dev := sim.NewMachine(sim.DGXA100(1)).Devs[0]
	tab.Attach(dev)
	for _, c := range []struct {
		id           int32
		items, words int
	}{{0, 4200, 2}, {1, 800, 1}, {0, 4200, 2}} { // 66 granules, then 13
		b := tab.Begin(dev)
		pg := b.Page(c.id)
		if pg.ID() != c.id || len(pg.Vals) != 2*c.items || len(pg.have) != c.words || pg.CacheBytes() != int64(16*c.items+16) {
			t.Errorf("page %d: %d values, %d bitmap words, %d bytes; want %d, %d, %d",
				c.id, len(pg.Vals), len(pg.have), pg.CacheBytes(), 2*c.items, c.words, 16*c.items+16)
		}
		last := (c.items+63)/64 - 1
		for _, g := range []int{0, last} {
			if pg.Has(g) {
				t.Errorf("page %d: granule %d produced before any read", c.id, g)
			}
			pg.Mark(g)
		}
		if !pg.Has(0) || !pg.Has(last) || (last > 1 && pg.Has(1)) {
			t.Errorf("page %d: Mark set the wrong granules", c.id)
		}
		b.Flush()
		b.End()
	}
	st := tab.Stats()
	if st.Name != "cols" || st.Unit != "edges" || st.PageItems != 4200 || st.Pages != 2 || st.TableBytes != 80000 ||
		st.CacheBytes != 1 || st.Devices != 1 || st.Policy != "lru" || st.Misses != 3 || st.PagesAllocated != 2 {
		t.Errorf("Stats() = %+v", st)
	}
}

// TestTableBatches is the behaviour both stores inherit, one case each.
func TestTableBatches(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		budget int64
		run    func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage)
	}{
		{"miss then hit", PolicyLRU, 8, func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage) {
			t0 := dev.Now()
			if n := demand(tab, dev, 1, 2, 1, 3, 100); n != 4 {
				t.Fatalf("first batch faulted %d pages, want 4", n)
			}
			missTime := dev.Now() - t0
			if st := tab.Stats(); st.Misses != 4 || st.Hits != 0 {
				t.Fatalf("first batch: %+v", st)
			}
			if got, want := dev.Stats.RemoteBytes, float64(3*tablePageBytes+3*tableItemBytes+tableMetaBytes); got != want {
				t.Errorf("charged %v UM bytes, want %v", got, want)
			}
			t1 := dev.Now()
			if n := demand(tab, dev, 1, 2, 1, 3, 100); n != 0 {
				t.Fatalf("repeat batch faulted %d pages", n)
			}
			if st := tab.Stats(); st.Misses != 4 || st.Hits != 4 {
				t.Errorf("repeat batch: one lookup per distinct page, got %+v", st)
			}
			if hitTime := dev.Now() - t1; hitTime != 0 || missTime <= 0 {
				t.Errorf("hit batch took %g s, miss batch %g s", hitTime, missTime)
			}
		}},
		{"eviction under pressure", PolicyLRU, 3, func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage) {
			// One batch touches more pages than the budget: every page
			// still serves the batch, identity intact, although the cache
			// dropped it long before End.
			b := tab.Begin(dev)
			var pages []*tablePage
			for id := int32(0); id < 12; id++ {
				pages = append(pages, b.Page(id))
			}
			for id, pg := range pages {
				if pg.id != int32(id) || b.Page(int32(id)) != pg {
					t.Fatalf("page %d was recycled inside the batch that reads it", id)
				}
			}
			b.Flush()
			b.End()
			st := tab.Stats()
			if st.Evictions != 9 || st.ResidentPages != 3 || st.ResidentBytes > 3*tablePageBytes {
				t.Errorf("after a 12-page batch under a 3-page budget: %+v", st)
			}
			// The dropped pages come back: a second batch allocates none.
			before := len(*log)
			demand(tab, dev, 20, 21, 22)
			for _, pg := range (*log)[before:] {
				found := false
				for _, old := range pages {
					found = found || pg == old
				}
				if !found {
					t.Errorf("page %d was allocated although dropped pages were free", pg.id)
				}
			}
		}},
		{"join of an in-flight prefetch", PolicyLRU, 8, func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage) {
			if n := tab.Prefetch(dev, []int32{0, 1, 2, -1, 1000}); n != 3 {
				t.Fatalf("prefetched %d pages, want 3 (out-of-range ids skipped)", n)
			}
			if now := dev.StreamNow(sim.StreamCompute); now != 0 {
				t.Fatalf("prefetch advanced the compute stream to %g", now)
			}
			ready := dev.StreamNow(sim.StreamCopy)
			if ready <= 0 {
				t.Fatal("prefetch charged nothing on the copy stream")
			}
			if n := demand(tab, dev, 0, 1); n != 0 {
				t.Fatalf("demand batch faulted %d prefetched pages", n)
			}
			// No time travel: the batch ends no earlier than the transfer.
			if now := dev.StreamNow(sim.StreamCompute); now != ready {
				t.Errorf("demand batch ended at %g, prefetch ready at %g", now, ready)
			}
			if st := tab.Stats(); st.PrefetchHits != 2 || st.Misses != 0 {
				t.Errorf("after joining: %+v", st)
			}
			// A finished transfer is free to join, and counts once.
			if n := demand(tab, dev, 0, 2); n != 0 || dev.StreamNow(sim.StreamCompute) != ready {
				t.Errorf("second batch faulted %d pages and ended at %g", n, dev.StreamNow(sim.StreamCompute))
			}
			if st := tab.Stats(); st.PrefetchHits != 3 {
				t.Errorf("prefetch hits %d, want 3", st.PrefetchHits)
			}
			if n := tab.Prefetch(dev, []int32{0, 1, 2}); n != 0 || dev.StreamNow(sim.StreamCopy) != ready {
				t.Errorf("re-prefetching resident pages faulted %d", n)
			}
		}},
		{"rejected prefetch uncharged", PolicyAdmit, 2, func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage) {
			for i := 0; i < 20; i++ { // two hot pages fill the budget
				demand(tab, dev, 0, 1)
			}
			copyNow, bytes := dev.StreamNow(sim.StreamCopy), dev.Stats.RemoteBytes
			if n := tab.Prefetch(dev, []int32{50, 51}); n != 0 {
				t.Fatalf("the sketch admitted %d cold speculative pages over hot ones", n)
			}
			if dev.StreamNow(sim.StreamCopy) != copyNow || dev.Stats.RemoteBytes != bytes {
				t.Error("a rejected prefetch was charged")
			}
			if st := tab.Stats(); st.AdmissionRejects != 2 {
				t.Errorf("admission rejects %d, want 2", st.AdmissionRejects)
			}
			// A rejected demand page is charged and serves its batch.
			b := tab.Begin(dev)
			if pg := b.Page(60); pg.id != 60 || b.Page(60) != pg {
				t.Error("rejected page does not serve its batch")
			}
			if n := b.Flush(); n != 1 || dev.Stats.RemoteBytes != bytes+tablePageBytes {
				t.Errorf("rejected demand page: faulted %d, charged %v bytes", n, dev.Stats.RemoteBytes-bytes)
			}
			b.End()
			if n := demand(tab, dev, 0, 1); n != 0 {
				t.Errorf("the cold pages displaced %d hot ones", n)
			}
		}},
		{"recycled page forgets its event", PolicyLRU, 1, func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage) {
			tab.Prefetch(dev, []int32{0})
			first := (*log)[0]
			if first.ready.T <= 0 {
				t.Fatal("prefetched page carries no ready event")
			}
			dev.Kernel(sim.KernelCost{FLOPs: 1e12, Tag: "compute"}) // well past the transfer
			demand(tab, dev, 1)                                     // drops page 0
			b := tab.Begin(dev)                                     // releases it
			if pg := b.Page(2); pg != first || pg.ready != (sim.Event{}) {
				t.Fatalf("recycled page (reused %v) kept a ready event: %+v", pg == first, pg.ready)
			}
			b.Flush()
			b.End()
		}},
		{"a batch may not forget its faults", PolicyLRU, 4, func(t *testing.T, tab *Table[uint32], dev *sim.Device, log *[]*tablePage) {
			ops := []struct {
				name string
				op   func(b *Batch[uint32])
			}{
				{"Begin", func(*Batch[uint32]) { tab.Begin(dev) }},
				{"End", func(b *Batch[uint32]) { b.End() }},
				{"Prefetch", func(*Batch[uint32]) { tab.Prefetch(dev, []int32{9}) }},
			}
			for i, o := range ops {
				b := tab.Begin(dev)
				b.Page(int32(10 + i)) // a miss, not yet charged
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "unflushed page faults") {
							t.Errorf("%s over an unflushed miss: recovered %q", o.name, msg)
						}
					}()
					o.op(b)
				}()
				b.Flush()
				b.End()
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var log []*tablePage
			tab, devs := newTestTable(c.policy, c.budget, &log)
			c.run(t, tab, devs[0], &log)
		})
	}
}

// TestTableConservation: over a random demand / prefetch / evict sequence
// the bytes the device was charged for are exactly the footprints of the
// pages the table produced and stamped — every demand miss, resident or
// served transiently, and every admitted prefetch; a rejected prefetch is
// neither stamped nor charged — and no page is ready before the issue point
// of the service that stamped it.
func TestTableConservation(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, PolicyAdmit} {
		for seed := int64(1); seed <= 4; seed++ {
			var log []*tablePage
			tab, devs := newTestTable(policy, 6, &log)
			dev := devs[0]
			rng := rand.New(rand.NewSource(seed))
			var want float64
			// settle checks the pages the operation just produced.
			settle := func(op string, issue float64, faulted int, prefetch bool) {
				t.Helper()
				stamped := 0
				for _, pg := range log {
					switch {
					case pg.ready == (sim.Event{}):
						if !prefetch {
							t.Fatalf("%v seed %d %s: demand page %d was never charged", policy, seed, op, pg.id)
						}
					case pg.ready.T < issue:
						t.Fatalf("%v seed %d %s: page %d ready at %g, before its service was issued at %g", policy, seed, op, pg.id, pg.ready.T, issue)
					default:
						stamped++
						want += float64(pg.CacheBytes())
					}
				}
				if stamped != faulted {
					t.Fatalf("%v seed %d %s: %d pages stamped, %d reported faulted", policy, seed, op, stamped, faulted)
				}
				if got := dev.Stats.RemoteBytes; got != want {
					t.Fatalf("%v seed %d %s: device charged %v UM bytes, pages produced hold %v", policy, seed, op, got, want)
				}
				log = log[:0]
			}
			for round := 0; round < 300; round++ {
				ids := make([]int32, 1+rng.Intn(9))
				for i := range ids {
					ids[i] = int32(rng.Intn(101) / (1 + round%3)) // a hot low range, and the partial page 100
				}
				if rng.Intn(3) == 0 {
					dev.Kernel(sim.KernelCost{FLOPs: float64(rng.Intn(1e9)), Tag: "compute"})
				}
				issue := dev.Now()
				if rng.Intn(3) == 0 {
					settle("prefetch", issue, tab.Prefetch(dev, ids), true)
					continue
				}
				b := tab.Begin(dev)
				for _, id := range ids {
					b.Page(id)
				}
				settle("batch", issue, b.Flush(), false)
				b.End()
			}
			st := tab.Stats()
			if st.Evictions == 0 || st.Hits == 0 || st.PrefetchHits == 0 || (policy == PolicyAdmit && st.AdmissionRejects == 0) {
				t.Errorf("%v seed %d: the sequence left a path untaken: %+v", policy, seed, st)
			}
		}
	}
}

// TestTableConcurrentDevices drives four devices of one table from real
// goroutines (the sim.RunParallel shape), under budgets that evict inside a
// batch: devices share nothing, so each ends with the counters and clocks of
// the same sequence run alone — the -race surface of the per-device state.
func TestTableConcurrentDevices(t *testing.T) {
	run := func(tab *Table[uint32], dev *sim.Device, slot int) {
		rng := rand.New(rand.NewSource(int64(100 + slot)))
		for it := 0; it < 60; it++ {
			if it%3 == 0 {
				tab.Prefetch(dev, []int32{int32(rng.Intn(101)), int32(rng.Intn(101))})
			}
			b := tab.Begin(dev)
			for i := 0; i < 16; i++ {
				id := int32(rng.Intn(101))
				if i%4 < 2 {
					id = int32(i % 4) // two pages read again after later misses evicted them
				}
				if pg := b.Page(id); pg.id != id {
					t.Errorf("slot %d iter %d: page %d resolved to a page re-targeted at %d", slot, it, id, pg.id)
					return
				}
			}
			b.Flush()
			b.End()
		}
	}
	for _, budget := range []int64{1, 2} {
		tab, devs := newTestTable(PolicyLRU, budget, nil)
		devs = devs[:4]
		sim.RunParallel(len(devs), func(slot int) { run(tab, devs[slot], slot) })
		var sum CacheStats
		for slot, dev := range devs {
			alone, d := newTestTable(PolicyLRU, budget, nil)
			run(alone, d[0], slot)
			sum.Add(alone.Stats().CacheStats)
			if got, want := dev.StreamNow(sim.StreamCopy), d[0].StreamNow(sim.StreamCopy); got != want {
				t.Errorf("budget %d slot %d: copy stream at %g, alone %g", budget, slot, got, want)
			}
		}
		sum.CapacityBytes = tab.Stats().CapacityBytes // eight caches attached, four driven
		if got := tab.Stats().CacheStats; got != sum || got.Evictions == 0 {
			t.Errorf("budget %d: table stats %+v, per-device runs sum to %+v", budget, got, sum)
		}
	}
}

// TestTableSteadyStateAllocs: once the cache is full and the free list
// primed, batches and prefetches that fault and evict on every page
// allocate nothing — pages and cache entries are recycled, trace tags were
// built at construction — and the table has stopped making pages. That holds
// for a batch that pins twice the pages the cache holds as well, from its
// third run on: the free list's bound follows the largest batch.
func TestTableSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name                  string
		budget                int64
		fresh, warmup, maxNew int
		prefetchHits          int64 // per batch; the large batch evicts its own prefetch
	}{
		{"batch within the cache", 16, 8, 8, 16 + 8 + 4 + 1, 4},
		{"batch of twice the cache", 8, 16, 2, 8 + 16 + 4, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, devs := newTestTable(PolicyLRU, c.budget, nil)
			dev := devs[0]
			dev.Tracing = true // tags reach the trace; building one per call would allocate
			next := int32(0)
			ids := make([]int32, 4)
			batch := func() {
				for i := range ids {
					ids[i] = (next + int32(c.fresh+i)) % 101
				}
				tab.Prefetch(dev, ids)
				b := tab.Begin(dev)
				for i := 0; i < c.fresh; i++ { // all fresh pages
					b.Page(next % 101)
					next++
				}
				b.Flush()
				b.End()
			}
			for i := 0; i < c.warmup; i++ {
				batch()
			}
			dev.Tracing = false // the trace slice itself grows
			before := tab.Stats()
			if avg := testing.AllocsPerRun(50, batch); avg != 0 {
				t.Errorf("faulting batch allocates %.1f objects per call, want 0", avg)
			}
			after := tab.Stats()
			if after.Misses-before.Misses < 50*(int64(c.fresh)-c.prefetchHits) || after.PrefetchHits-before.PrefetchHits < 50*c.prefetchHits ||
				after.Evictions-before.Evictions < 50*int64(c.fresh) {
				t.Fatalf("batches did not fault and evict: %+v -> %+v", before, after)
			}
			if after.PagesAllocated != before.PagesAllocated || after.PagesAllocated > int64(c.maxNew) {
				t.Errorf("page pool still growing: %d pages allocated after warm-up, %d after 51 more batches (cache, batch and prefetch hold %d)",
					before.PagesAllocated, after.PagesAllocated, c.maxNew)
			}
			if max, want := tab.batches[0].spare.Max, c.fresh+int(c.budget)+1; max != want {
				t.Errorf("free list bound %d, want largest batch + cache pages + 1 = %d", max, want)
			}
		})
	}
}

// TestReadListGroupsByPage: Group is a stable sort of the reads by slot.
func TestReadListGroupsByPage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r ReadList
	for _, n := range []int{0, 1, 40, 1000, 7} { // shrinking reuses the buffers
		pages := 1 + rng.Intn(60)
		r.Reset(n)
		for i := range r.Slot {
			r.Slot[i] = int32(rng.Intn(pages))
		}
		r.Group(pages)
		seen := 0
		for p := 0; p < pages; p++ {
			last := int32(-1)
			for _, i := range r.Of(p) {
				if r.Slot[i] != int32(p) || i <= last {
					t.Fatalf("n=%d: page %d lists read %d (slot %d) after read %d", n, p, i, r.Slot[i], last)
				}
				last = i
				seen++
			}
		}
		if seen != n {
			t.Fatalf("n=%d: pages list %d reads", n, seen)
		}
	}
}

// TestClaimantsInline: a fill is shared only when it is large and both
// switches — sim.SetParallel and tensor.SetWorkers — allow it.
func TestClaimantsInline(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(3))
	defer sim.SetParallel(sim.SetParallel(true))
	if got := Claimants(fanoutMinBytes); got != 3 {
		t.Errorf("a batch at the cutoff gets %d claimants, want tensor.Workers() = 3", got)
	}
	if got := Claimants(fanoutMinBytes - 1); got != 1 {
		t.Errorf("a batch below the cutoff gets %d claimants", got)
	}
	sim.SetParallel(false)
	if got := Claimants(1 << 30); got != 1 {
		t.Errorf("%d claimants with sim.SetParallel(false)", got)
	}
	sim.SetParallel(true)
	tensor.SetWorkers(1)
	if got := Claimants(1 << 30); got != 1 {
		t.Errorf("%d claimants with tensor.SetWorkers(1)", got)
	}
}
