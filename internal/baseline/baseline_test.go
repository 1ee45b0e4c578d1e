package baseline

import (
	"fmt"
	"strings"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

func smallOpts() train.Options {
	return train.Options{
		Arch: "graphsage", Batch: 32, Fanouts: []int{4, 4},
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

func TestHostLoaderBatchValid(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	ld := NewHostLoader(ds, m.CPUs[0], m.Devs[0], []int{4, 4}, DGL, 1)
	b, tm := ld.BuildBatch(ds.Train[:16])
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.BatchSize() != 16 {
		t.Fatalf("batch size = %d", b.BatchSize())
	}
	if tm.Sample <= 0 || tm.Gather <= 0 {
		t.Errorf("host loader timing incomplete: %+v", tm)
	}
	// The GPU must have spent idle time waiting on CPU + PCIe.
	if m.Devs[0].Stats.IdleSeconds <= 0 {
		t.Error("GPU never idled during host batch preparation")
	}
	if m.Devs[0].Stats.HostBytes <= 0 {
		t.Error("no PCIe traffic recorded")
	}
	// Targets' features are the first rows.
	dim := ds.Spec.FeatDim
	for i, v := range ds.Train[:16] {
		for j := 0; j < dim; j++ {
			if b.Feat.At(i, j) != ds.Feat[v*int64(dim)+int64(j)] {
				t.Fatalf("feature mismatch at target %d", i)
			}
		}
	}
}

func TestBaselineEpochRuns(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	// Realistic batch/fanout so data preparation, not kernel launch
	// overhead, sets the shape (as at paper scale).
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.005))
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.Batch = 128
	opts.Fanouts = []int{10, 10}
	tr, err := New(m, ds, opts, DGL)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.RunEpoch()
	if st.EpochTime <= 0 || st.Iters == 0 {
		t.Fatalf("bad epoch stats: %+v", st)
	}
	// Baseline signature (Figure 9, left bars): sampling + gathering
	// dominate the epoch.
	if st.Timing.Sample+st.Timing.Gather < st.Timing.Train {
		t.Errorf("baseline should be sample/gather bound: %+v", st.Timing)
	}
}

func TestPyGSlowerThanDGL(t *testing.T) {
	ds := smallDataset(t)
	epoch := func(f Flavor) float64 {
		m := sim.NewMachine(sim.DGXA100(1))
		tr, err := New(m, ds, smallOpts(), f)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset()
		return tr.RunEpoch().EpochTime
	}
	dgl, pyg := epoch(DGL), epoch(PyG)
	if pyg <= dgl {
		t.Errorf("PyG epoch (%g) should exceed DGL epoch (%g)", pyg, dgl)
	}
}

func TestWholeGraphBeatsBaselines(t *testing.T) {
	// The headline (Table V): WholeGraph is much faster than both
	// baselines for identical models and workloads. This needs a
	// non-trivial workload — on toy batches kernel-launch overhead
	// dominates every pipeline equally.
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.005))
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.Batch = 128
	opts.Fanouts = []int{10, 10}

	m1 := sim.NewMachine(sim.DGXA100(1))
	wg, err := train.New(m1, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	m1.Reset()
	wgTime := wg.RunEpoch().EpochTime

	m2 := sim.NewMachine(sim.DGXA100(1))
	dgl, err := New(m2, ds, opts, DGL)
	if err != nil {
		t.Fatal(err)
	}
	m2.Reset()
	dglTime := dgl.RunEpoch().EpochTime

	if dglTime < 3*wgTime {
		t.Errorf("DGL epoch %g not >=3x WholeGraph epoch %g", dglTime, wgTime)
	}
}

func TestBaselineAccuracyParity(t *testing.T) {
	// Table III: the baselines and WholeGraph train to comparable accuracy
	// because the model math is shared; verify the baseline also learns.
	m := sim.NewMachine(sim.DGXA100(1))
	ds := smallDataset(t)
	opts := smallOpts()
	opts.Arch = "gcn"
	opts.LR = 0.02
	tr, err := New(m, ds, opts, DGL)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.RunEpoch()
	var last train.EpochStats
	for e := 0; e < 30; e++ {
		last = tr.RunEpoch()
	}
	if last.Loss >= first.Loss || last.TrainAcc <= first.TrainAcc {
		t.Errorf("baseline failed to learn: loss %.3f->%.3f acc %.3f->%.3f",
			first.Loss, last.Loss, first.TrainAcc, last.TrainAcc)
	}
}

func TestBaselineUtilizationLow(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	// Realistic per-iteration volumes: at toy sizes kernel launches keep
	// the GPU busy enough to mask the waiting (see Figure 12's premise).
	ds, err0 := dataset.Generate(dataset.OgbnProducts.Scaled(0.005))
	if err0 != nil {
		t.Fatal(err0)
	}
	opts := smallOpts()
	opts.Batch = 128
	opts.Fanouts = []int{10, 10}
	opts.Trace = true
	tr, err := New(m, ds, opts, DGL)
	if err != nil {
		t.Fatal(err)
	}
	dev := tr.Worker0Device()
	t0 := dev.Now()
	for e := 0; e < 3; e++ {
		tr.RunEpoch()
	}
	bf := sim.BusyFraction(dev.Trace(), t0, dev.Now())
	// Figure 12: baseline GPU utilization fluctuates and stays low.
	if bf > 0.6 {
		t.Errorf("baseline GPU utilization %.3f unexpectedly high", bf)
	}
}

func TestFlavorName(t *testing.T) {
	if FlavorName(DGL) != "DGL" || FlavorName(PyG) != "PyG" {
		t.Error("flavor names changed")
	}
}

// TestBaselineIgnoresSchedule: the stock frameworks dispatch every kernel
// eagerly, so a baseline trainer built with Options.Schedule captures
// nothing and charges, trains and times exactly what one built without it
// does — every device's clocks and Stats, every host executor's clock,
// every epoch's statistics.
func TestBaselineIgnoresSchedule(t *testing.T) {
	ds := smallDataset(t)
	run := func(flavor Flavor, schedule bool) (string, *train.Trainer) {
		m := sim.NewMachine(sim.DGXA100(1))
		opts := smallOpts()
		opts.Batch, opts.RealWorkers, opts.Schedule = 8, 2, schedule
		tr, err := New(m, ds, opts, flavor)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for e := 0; e < 2; e++ {
			fmt.Fprintf(&b, "%+v\n", tr.RunEpoch())
		}
		for _, d := range m.Devs {
			fmt.Fprintf(&b, "%v %v %+v\n", d.StreamNow(sim.StreamCompute), d.StreamNow(sim.StreamCopy), d.Stats)
		}
		for _, c := range m.CPUs {
			fmt.Fprintf(&b, "%v\n", c.Now())
		}
		return b.String(), tr
	}
	for _, flavor := range []Flavor{DGL, PyG} {
		eager, _ := run(flavor, false)
		sched, tr := run(flavor, true)
		if gc := tr.GraphStats(); gc.Active() {
			t.Errorf("%s: a baseline ran the step-graph machinery: %v", FlavorName(flavor), gc)
		}
		if sched != eager {
			t.Errorf("%s: Schedule moved the run:\n%s\nwant\n%s", FlavorName(flavor), sched, eager)
		}
	}
}
