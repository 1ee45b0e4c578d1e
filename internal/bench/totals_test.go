package bench

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wholegraph/internal/dataset"
	"wholegraph/internal/train"
)

// knobbedConfig turns on every kind of counter Totals carries: both paged
// stores under eviction pressure, step graphs.
func knobbedConfig() Config {
	return Config{
		Quick: true, Scale: 2e-4, Epochs: 2, Seed: 1,
		Train: train.Options{
			Schedule: true, PagedFeatures: true, FeatPageRows: 16, FeatCacheMB: 1,
			PagedTopo: true, TopoPageEdges: 256, TopoCacheMB: 1,
		},
	}
}

// TestTotalsSerialEqualsParallel: the same experiment folds to the same
// totals, to the bit, whether its cells run one after another or
// concurrently: each cell folds into a value of its own and those are added
// in cell order, so the three float link sums do not see completion order.
func TestTotalsSerialEqualsParallel(t *testing.T) {
	run := func(parallel bool) *Totals {
		cfg := knobbedConfig()
		cfg.Parallel = parallel
		cfg.Totals = &Totals{}
		if _, err := Table5(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Totals
	}
	s, p := run(false), run(true)
	if *s != *p {
		t.Errorf("totals differ\nserial   %+v\nparallel %+v", *s, *p)
	}
	if s.Report() != p.Report() {
		t.Errorf("closing lines differ\nserial   %s\nparallel %s", s.Report(), p.Report())
	}
	if s.FeatStore.Misses == 0 || s.FeatStore.Evictions == 0 ||
		s.TopoStore.Misses == 0 || s.Graph.Captures == 0 || s.CommSeconds == 0 {
		t.Errorf("a kind of counter never moved, so its fold was not exercised:\n%s", s.Report())
	}
	for _, line := range []string{"feature store: ", "topology store: ", "step graphs: ", "collectives: "} {
		if !strings.Contains(s.Report(), line) {
			t.Errorf("closing lines lack %q:\n%s", line, s.Report())
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle's finalizers free what the second collects
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTotalsKeepNothingAlive: Fold copies numbers, so once an experiment
// returns, every machine and paged store its cells built is garbage. Two
// readings of that. The live heap does not grow over repeated runs of an
// experiment that builds 36 trainers (behind a registry of machines and
// stores it grew by 19 MiB a run). And a single cell's trainer is finalized;
// the machine and the paged store cannot carry finalizers of their own —
// Machine and Device, Store and Partitioned point at each other, and Go never
// finalizes a cycle — which is why the heap is the witness for those.
func TestTotalsKeepNothingAlive(t *testing.T) {
	cfg := knobbedConfig().normalize()
	cfg.Totals = &Totals{}
	if _, err := Table5(cfg); err != nil { // fills dsCache, which does stay
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < 3; i++ {
		if _, err := Table5(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if grown := int64(liveHeap()) - int64(before); grown > 2<<20 {
		t.Errorf("live heap grew %d KiB over three runs: the experiment's cells are still reachable", grown>>10)
	}

	ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int32
	const want = 1
	cell := func() {
		tr, err := newTrainer(FwWholeGraph, 1, ds, cfg.trainOpts("graphsage"))
		if err != nil {
			t.Fatal(err)
		}
		defer cfg.Totals.Fold(tr)
		tr.RunEpoch()
		runtime.SetFinalizer(tr, func(*train.Trainer) { freed.Add(1) })
	}
	cell()
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < want; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finalizers ran: something still holds the cell's trainer", freed.Load(), want)
		}
		runtime.GC()
	}
}
