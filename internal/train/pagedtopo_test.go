package train

import (
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
)

func runEpochsOn(t *testing.T, ds *dataset.Dataset, opts Options, epochs int) ([]EpochStats, *Trainer) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []EpochStats
	for e := 0; e < epochs; e++ {
		out = append(out, tr.RunEpoch())
	}
	return out, tr
}

func runEpochs(t *testing.T, opts Options, epochs int) ([]EpochStats, *Trainer) {
	t.Helper()
	return runEpochsOn(t, smallDataset(t), opts, epochs)
}

// TestPagedTopoBitIdentical: training through the paged topology store is
// bit-identical to the in-memory CSR — losses and accuracies match every
// epoch, serially and with real parallel workers — the tentpole
// equivalence guarantee for out-of-core topology.
func TestPagedTopoBitIdentical(t *testing.T) {
	base, _ := runEpochs(t, smallOpts("graphsage"), 2)

	paged := smallOpts("graphsage")
	paged.PagedTopo = true
	paged.TopoPageEdges = 512
	paged.TopoCacheMB = 1
	got, tr := runEpochs(t, paged, 2)
	for e := range base {
		if got[e].Loss != base[e].Loss || got[e].TrainAcc != base[e].TrainAcc {
			t.Errorf("epoch %d: paged topo (loss %v acc %v) != in-RAM (loss %v acc %v)",
				e, got[e].Loss, got[e].TrainAcc, base[e].Loss, base[e].TrainAcc)
		}
	}
	st := tr.TopoStoreStats()
	if st.Hits+st.Misses == 0 {
		t.Error("paged-topology run recorded no page lookups")
	}

	// Fully paged (topology + features) must also match the flat run.
	full := paged
	full.PagedFeatures = true
	full.FeatPageRows = 64
	full.FeatCacheMB = 1
	gotFull, _ := runEpochs(t, full, 2)
	for e := range base {
		if gotFull[e].Loss != base[e].Loss {
			t.Errorf("epoch %d: fully paged loss %v != flat %v", e, gotFull[e].Loss, base[e].Loss)
		}
	}

	// Real parallel workers: paged and flat still agree bit-for-bit.
	basePar := smallOpts("graphsage")
	basePar.RealWorkers = 4
	flatPar, _ := runEpochs(t, basePar, 2)
	par := paged
	par.RealWorkers = 4
	gotPar, _ := runEpochs(t, par, 2)
	for e := range flatPar {
		if gotPar[e].Loss != flatPar[e].Loss {
			t.Errorf("epoch %d: parallel paged-topo loss %v != parallel flat %v", e, gotPar[e].Loss, flatPar[e].Loss)
		}
	}
}

// TestPrefetchAndAdmissionKeepResults: fault prefetch and the admission
// policy touch only cache residency and virtual time — losses and
// accuracies stay bit-identical to the plain paged run, prefetch hits are
// recorded, and the admission sketch rejects pages under pressure.
func TestPrefetchAndAdmissionKeepResults(t *testing.T) {
	// A dataset larger than the 1 MiB caches, so pages churn and the
	// prefetched entries are genuinely new residency.
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.004))
	if err != nil {
		t.Fatal(err)
	}
	paged := smallOpts("graphsage")
	paged.PagedTopo = true
	paged.TopoPageEdges = 256
	paged.TopoCacheMB = 1
	paged.PagedFeatures = true
	paged.FeatPageRows = 64
	paged.FeatCacheMB = 1
	base, _ := runEpochsOn(t, ds, paged, 2)

	pre := paged
	pre.PrefetchPages = 16
	got, tr := runEpochsOn(t, ds, pre, 2)
	for e := range base {
		if got[e].Loss != base[e].Loss || got[e].TrainAcc != base[e].TrainAcc {
			t.Errorf("epoch %d: prefetch changed results (loss %v != %v)", e, got[e].Loss, base[e].Loss)
		}
	}
	if tr.TopoStoreStats().PrefetchHits+tr.FeatStoreStats().PrefetchHits == 0 {
		t.Error("prefetching run recorded no prefetch hits")
	}

	adm := pre
	adm.CachePolicy = "admit"
	gotAdm, trAdm := runEpochsOn(t, ds, adm, 2)
	for e := range base {
		if gotAdm[e].Loss != base[e].Loss || gotAdm[e].TrainAcc != base[e].TrainAcc {
			t.Errorf("epoch %d: admission changed results (loss %v != %v)", e, gotAdm[e].Loss, base[e].Loss)
		}
	}
	if trAdm.TopoStoreStats().Policy != "admit" || trAdm.FeatStoreStats().Policy != "admit" {
		t.Error("admission policy did not reach the stores")
	}

	// Bad policy spelling is rejected up front.
	bad := paged
	bad.CachePolicy = "clock"
	if _, err := New(sim.NewMachine(sim.DGXA100(1)), smallDataset(t), bad); err == nil {
		t.Error("unknown cache policy accepted")
	}
}

// TestTwoNodeStoreStatsShape: every machine node pages the same tables, so a
// 2-node trainer reports each table's shape — pages, bytes, page size,
// policy — once, and sums only what each node adds: devices, budgets and
// cache counters.
func TestTwoNodeStoreStatsShape(t *testing.T) {
	opts := smallOpts("graphsage")
	opts.PagedTopo, opts.TopoPageEdges, opts.TopoCacheMB = true, 512, 1
	opts.PagedFeatures, opts.FeatPageRows, opts.FeatCacheMB = true, 64, 1
	tr, err := New(sim.NewMachine(sim.DGXA100(2)), smallDataset(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpoch()
	if len(tr.Stores) != 2 {
		t.Fatalf("%d stores on a 2-node machine", len(tr.Stores))
	}
	f0, f1, fs := tr.Stores[0].FeatStore().Stats(), tr.Stores[1].FeatStore().Stats(), tr.FeatStoreStats()
	want := f0
	want.Devices, want.CacheBytes = f0.Devices+f1.Devices, f0.CacheBytes+f1.CacheBytes
	want.CacheStats.Add(f1.CacheStats)
	if fs != want || fs.Pages != f1.Pages || fs.TableBytes != f1.TableBytes || fs.Misses == 0 {
		t.Errorf("feature store stats %#v, want %#v", fs, want)
	}
	t0, t1, ts := tr.Stores[0].TopoStore().Stats(), tr.Stores[1].TopoStore().Stats(), tr.TopoStoreStats()
	wantT := t0
	wantT.Devices, wantT.CacheBytes = t0.Devices+t1.Devices, t0.CacheBytes+t1.CacheBytes
	wantT.CacheStats.Add(t1.CacheStats)
	if ts != wantT || ts.Pages != t1.Pages || ts.TableBytes != t1.TableBytes || ts.Misses == 0 {
		t.Errorf("topology store stats %#v, want %#v", ts, wantT)
	}
}

// TestPagedTopoRejectsWeighted: edge weights need a materialized column.
func TestPagedTopoRejectsWeighted(t *testing.T) {
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = true
	wds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts("graphsage")
	opts.PagedTopo = true
	if _, err := New(sim.NewMachine(sim.DGXA100(1)), wds, opts); err == nil {
		t.Error("weighted dataset accepted with paged topology")
	}
}
