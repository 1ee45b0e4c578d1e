package train

import (
	"math"
	"strings"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
)

func smallOpts(arch string) Options {
	return Options{
		Arch: arch, Batch: 32, Fanouts: []int{4, 4},
		Hidden: 16, Heads: 2, Dropout: 0.2, LR: 0.01, Seed: 5,
	}
}

func smallDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNormalizeDefaults(t *testing.T) {
	o := Options{}.Normalize()
	if o.Arch != "graphsage" || o.Batch != 512 || len(o.Fanouts) != 3 ||
		o.Fanouts[0] != 30 || o.Hidden != 256 || o.Heads != 4 || o.RealWorkers != 1 {
		t.Errorf("paper defaults drifted: %+v", o)
	}
}

func TestRunEpochStats(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	tr, err := New(m, ds, smallOpts("graphsage"))
	if err != nil {
		t.Fatal(err)
	}
	st := tr.RunEpoch()
	if st.Epoch != 1 || st.Iters != tr.ItersPerEpoch() || st.Iters == 0 {
		t.Errorf("epoch bookkeeping wrong: %+v", st)
	}
	if st.EpochTime <= 0 {
		t.Error("epoch time not positive")
	}
	if st.Timing.Sample <= 0 || st.Timing.Gather <= 0 || st.Timing.Train <= 0 {
		t.Errorf("phase breakdown incomplete: %+v", st.Timing)
	}
	if st.Timing.Total() > st.EpochTime*1.05 {
		t.Errorf("worker breakdown %.4g exceeds epoch time %.4g", st.Timing.Total(), st.EpochTime)
	}
	// WholeGraph's signature: training dominates, sampling+gathering are
	// the minority (Figure 9, right bars).
	if st.Timing.Sample+st.Timing.Gather > st.Timing.Train {
		t.Errorf("sample+gather (%g) should be below train (%g) for WholeGraph",
			st.Timing.Sample+st.Timing.Gather, st.Timing.Train)
	}
}

func TestTrainingLearns(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("gcn")
	opts.LR = 0.02
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.RunEpoch()
	var last EpochStats
	for e := 0; e < 30; e++ {
		last = tr.RunEpoch()
	}
	if last.Loss >= first.Loss {
		t.Errorf("loss did not decrease: %.3f -> %.3f", first.Loss, last.Loss)
	}
	if last.TrainAcc <= first.TrainAcc {
		t.Errorf("train accuracy did not improve: %.3f -> %.3f", first.TrainAcc, last.TrainAcc)
	}
	// Validation accuracy should clear the random baseline (1/47).
	val, err := tr.Evaluate(ds.Val, 0)
	if err != nil {
		t.Fatal(err)
	}
	if val < 0.15 {
		t.Errorf("validation accuracy %.3f barely above chance", val)
	}
}

func TestMultiWorkerGradientSync(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("gcn")
	opts.RealWorkers = 2
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpoch()
	// After averaging + identical optimizer steps the replicas must agree.
	p0 := tr.Models[0].Params().Params()
	p1 := tr.Models[1].Params().Params()
	for i := range p0 {
		for j := range p0[i].W.V {
			if p0[i].W.V[j] != p1[i].W.V[j] {
				t.Fatalf("replicas diverged at param %s[%d]", p0[i].Name, j)
			}
		}
	}
}

func TestRealWorkersBounded(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("gcn")
	opts.RealWorkers = 9
	if _, err := New(m, ds, opts); err == nil {
		t.Error("RealWorkers > GPUs accepted")
	}
}

// newCustomError returns NewCustom's error for opts; a configuration it
// rejects must not get as far as a loader, which is built after each model.
func newCustomError(t *testing.T, opts Options) error {
	t.Helper()
	ds := &dataset.Dataset{Spec: dataset.OgbnProducts.Scaled(0.001)}
	_, err := NewCustom(sim.NewMachine(sim.DGXA100(1)), ds, opts, func(int, *sim.Device) BatchLoader {
		t.Fatal("a model and its loader were built for a rejected configuration")
		return nil
	})
	return err
}

// The three configurations below are what wgtrain -model gat -hidden 30
// -heads 4, -model bogus and -model gat -heads -2 ask for: they must come
// back as errors and never reach gnn.New, which panics on them.

func TestNewCustomRejectsGATHiddenNotMultipleOfHeads(t *testing.T) {
	opts := smallOpts("gat")
	opts.Hidden, opts.Heads = 30, 4
	if err := newCustomError(t, opts); err == nil || !strings.Contains(err.Error(), "multiple of 4 heads") {
		t.Errorf("hidden 30 with 4 heads: error %v", err)
	}
}

func TestNewCustomRejectsUnknownArch(t *testing.T) {
	if err := newCustomError(t, smallOpts("bogus")); err == nil || !strings.Contains(err.Error(), `unknown architecture "bogus"`) {
		t.Errorf("arch bogus: error %v", err)
	}
}

func TestNewCustomRejectsNegativeHeads(t *testing.T) {
	opts := smallOpts("gat")
	opts.Heads = -2
	if err := newCustomError(t, opts); err == nil || !strings.Contains(err.Error(), "multiple of -2 heads") {
		t.Errorf("-2 heads: error %v", err)
	}
}

// wgtrain -dropout NaN, -0.5 and 1.5 must fail before a model is built.
func TestNewCustomRejectsDropoutOutOfRange(t *testing.T) {
	for _, p := range []float32{float32(math.NaN()), -0.5, 1.5} {
		opts := smallOpts("graphsage")
		opts.Dropout = p
		if err := newCustomError(t, opts); err == nil || !strings.Contains(err.Error(), "not in [0, 1]") {
			t.Errorf("dropout %v: error %v", p, err)
		}
	}
}

func TestMultiNodeScaling(t *testing.T) {
	ds := smallDataset(t)
	epoch := func(nodes int) float64 {
		m := sim.NewMachine(sim.DGXA100(nodes))
		opts := smallOpts("graphsage")
		opts.Batch = 8 // more iterations so scaling is visible
		tr, err := New(m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset() // exclude store setup
		return tr.RunEpoch().EpochTime
	}
	t1 := epoch(1)
	t4 := epoch(4)
	if t4 >= t1 {
		t.Errorf("4-node epoch (%g) not faster than 1-node (%g)", t4, t1)
	}
	// Near-linear: at least 2.2x speedup at 4 nodes on this small graph.
	if t1/t4 < 2.2 {
		t.Errorf("4-node speedup only %.2fx", t1/t4)
	}
}

func TestMaxItersExtrapolates(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("gcn")
	opts.Batch = 4 // many iterations
	opts.MaxItersPerEpoch = 2
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.RunEpoch()
	if st.Iters <= opts.MaxItersPerEpoch {
		t.Fatalf("expected more iters (%d) than the cap", st.Iters)
	}
	if st.EpochTime <= 0 {
		t.Error("extrapolated epoch time missing")
	}
}

func TestTraceUtilizationHigh(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts("graphsage")
	opts.Trace = true
	opts.Dropout = 0.5
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	dev := tr.Worker0Device()
	t0 := dev.Now()
	for e := 0; e < 3; e++ {
		tr.RunEpoch()
	}
	bf := sim.BusyFraction(dev.Trace(), t0, dev.Now())
	// Figure 12: WholeGraph sustains >= 95% GPU utilization.
	if bf < 0.95 {
		t.Errorf("WholeGraph GPU utilization %.3f, want >= 0.95", bf)
	}
}

func TestWeightedDatasetTrains(t *testing.T) {
	// End-to-end with edge weights: the loader gathers per-edge weights
	// (4-byte accesses) and the models aggregate with weighted means; the
	// WholeGraph and DGL pipelines must agree on the block weights and
	// both learn.
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = true
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	opts := smallOpts("graphsage")
	opts.LR = 0.02
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.RunEpoch()
	var last EpochStats
	for e := 0; e < 20; e++ {
		last = tr.RunEpoch()
	}
	if last.Loss >= first.Loss {
		t.Errorf("weighted training did not learn: %.3f -> %.3f", first.Loss, last.Loss)
	}
	// Edge-weight gathering shows up in the gather phase.
	if last.Timing.Gather <= 0 {
		t.Error("no gather time recorded")
	}
}

// TestPagedRawBitIdentical: training through the paged feature store with
// the raw encoding must reproduce the flat-slab run bit-for-bit — losses
// and accuracies identical across epochs, including with real parallel
// workers. This is the tentpole equivalence guarantee: paging is a memory
// optimization, not a numerics change.
func TestPagedRawBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	run := func(opts Options) []EpochStats {
		m := sim.NewMachine(sim.DGXA100(1))
		tr, err := New(m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []EpochStats
		for e := 0; e < 2; e++ {
			out = append(out, tr.RunEpoch())
		}
		return out
	}
	base := run(smallOpts("graphsage"))

	paged := smallOpts("graphsage")
	paged.PagedFeatures = true
	paged.FeatPageRows = 64
	paged.FeatCacheMB = 1
	got := run(paged)
	for e := range base {
		if got[e].Loss != base[e].Loss || got[e].TrainAcc != base[e].TrainAcc {
			t.Errorf("epoch %d: paged raw (loss %v acc %v) != flat (loss %v acc %v)",
				e, got[e].Loss, got[e].TrainAcc, base[e].Loss, base[e].TrainAcc)
		}
	}

	// With real parallel workers (which reorder batches across devices,
	// changing numerics identically for both feature paths), paged and
	// flat must still agree bit-for-bit with each other.
	basePar := smallOpts("graphsage")
	basePar.RealWorkers = 4
	flatPar := run(basePar)
	par := paged
	par.RealWorkers = 4
	gotPar := run(par)
	for e := range flatPar {
		if gotPar[e].Loss != flatPar[e].Loss {
			t.Errorf("epoch %d: parallel paged loss %v != parallel flat %v", e, gotPar[e].Loss, flatPar[e].Loss)
		}
	}
}

// TestPagedLossyTrains: lossy encodings are opt-in and must still learn;
// stats plumbing reports the encoding and cache activity.
func TestPagedLossyTrains(t *testing.T) {
	ds := smallDataset(t)
	for _, enc := range []string{"f16", "q8"} {
		m := sim.NewMachine(sim.DGXA100(1))
		opts := smallOpts("graphsage")
		opts.PagedFeatures = true
		opts.FeatEncoding = enc
		opts.FeatPageRows = 64
		tr, err := New(m, ds, opts)
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		first := tr.RunEpoch()
		var last EpochStats
		for e := 0; e < 5; e++ {
			last = tr.RunEpoch()
		}
		if !(last.Loss < first.Loss) {
			t.Errorf("%s: loss did not improve (%v -> %v)", enc, first.Loss, last.Loss)
		}
		st := tr.FeatStoreStats()
		if st.Encoding != enc {
			t.Errorf("stats encoding %q, want %q", st.Encoding, enc)
		}
		if st.Hits+st.Misses == 0 {
			t.Errorf("%s: no page lookups recorded", enc)
		}
	}
}

// TestOutOfCoreRequiresPaged: a dataset with neither feature slab nor
// materialized CSR is rejected unless both paged stores are enabled, and
// trains once they are.
func TestOutOfCoreRequiresPaged(t *testing.T) {
	ds, err := dataset.GenerateOutOfCore(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(1))
	if _, err := New(m, ds, smallOpts("graphsage")); err == nil {
		t.Fatal("out-of-core dataset accepted without PagedFeatures")
	}
	featOnly := smallOpts("graphsage")
	featOnly.PagedFeatures = true
	if _, err := New(m, ds, featOnly); err == nil {
		t.Fatal("out-of-core dataset accepted without PagedTopo")
	}
	opts := smallOpts("graphsage")
	opts.PagedFeatures = true
	opts.FeatPageRows = 64
	opts.PagedTopo = true
	opts.TopoPageEdges = 512
	tr, err := New(sim.NewMachine(sim.DGXA100(1)), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.RunEpoch()
	if st.Iters == 0 || st.EpochTime <= 0 {
		t.Errorf("out-of-core epoch did not run: %+v", st)
	}
	ts := tr.TopoStoreStats()
	if ts.Hits+ts.Misses == 0 {
		t.Error("out-of-core epoch recorded no topology page lookups")
	}
}

// TestBucketOrder: readiness order with ties broken by index.
func TestBucketOrder(t *testing.T) {
	order := bucketOrder([]float64{3, 1, 2, 1}, nil)
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if len(bucketOrder(nil, order)) != 0 {
		t.Error("empty readiness produced a non-empty order")
	}
}

// TestGateStarts: real workers gate at their own readiness, mirrors at the
// fleet max.
func TestGateStarts(t *testing.T) {
	devWorker := []int{0, -1, 1, -1}
	readyAt := [][]float64{{5, 7}, {6, 8}}
	startAt := make([]float64, 4)
	gateStarts(devWorker, readyAt, 1, 9, startAt)
	want := []float64{7, 9, 8, 9}
	for i := range want {
		if startAt[i] != want[i] {
			t.Fatalf("startAt %v, want %v", startAt, want)
		}
	}
}
