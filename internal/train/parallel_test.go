package train_test

import (
	"runtime"
	"testing"

	"wholegraph/internal/baseline"
	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

func eqOpts(arch string) train.Options {
	return train.Options{
		Arch: arch, Batch: 32, Fanouts: []int{4, 4},
		Hidden: 16, Heads: 2, Dropout: 0.2, LR: 0.01, Seed: 5,
	}
}

func eqDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// runEpochs builds a fresh trainer over a fresh machine and runs it for the
// given epochs, returning the stats plus the final clocks of every device
// and CPU. flavor selects the pipeline: -1 for WholeGraph, otherwise a
// baseline.Flavor.
func runEpochs(t *testing.T, epochs, workers int, flavor baseline.Flavor, wholegraph bool) ([]train.EpochStats, []float64) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	ds := eqDataset(t)
	opts := eqOpts("graphsage")
	opts.RealWorkers = workers
	var tr *train.Trainer
	var err error
	if wholegraph {
		tr, err = train.New(m, ds, opts)
	} else {
		tr, err = baseline.New(m, ds, opts, flavor)
	}
	if err != nil {
		t.Fatal(err)
	}
	var stats []train.EpochStats
	for e := 0; e < epochs; e++ {
		stats = append(stats, tr.RunEpoch())
	}
	var clocks []float64
	for _, d := range m.Devs {
		clocks = append(clocks, d.Now())
	}
	for _, c := range m.CPUs {
		clocks = append(clocks, c.Now())
	}
	return stats, clocks
}

// TestSerialParallelEquivalence is the correctness anchor for parallel
// device execution (ISSUE 1): with pinned seeds, running the per-worker
// epoch body on real goroutines must produce bit-identical losses,
// accuracies, phase breakdowns and virtual clocks to the serial reference
// path under GOMAXPROCS=1.
func TestSerialParallelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		flavor     baseline.Flavor
		wholegraph bool
	}{
		{"wholegraph", 0, true},
		{"dgl", baseline.DGL, false},
		{"pyg", baseline.PyG, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const epochs, workers = 2, 3

			prevProcs := runtime.GOMAXPROCS(1)
			prevPar := sim.SetParallel(false)
			serialStats, serialClocks := runEpochs(t, epochs, workers, tc.flavor, tc.wholegraph)
			sim.SetParallel(prevPar)
			runtime.GOMAXPROCS(prevProcs)

			prevPar = sim.SetParallel(true)
			parStats, parClocks := runEpochs(t, epochs, workers, tc.flavor, tc.wholegraph)
			sim.SetParallel(prevPar)

			if len(serialStats) != len(parStats) {
				t.Fatalf("epoch count %d vs %d", len(serialStats), len(parStats))
			}
			for e := range serialStats {
				if serialStats[e] != parStats[e] {
					t.Errorf("epoch %d stats differ:\n serial   %+v\n parallel %+v",
						e+1, serialStats[e], parStats[e])
				}
			}
			for i := range serialClocks {
				if serialClocks[i] != parClocks[i] {
					t.Errorf("clock %d: serial %v vs parallel %v", i, serialClocks[i], parClocks[i])
				}
			}
		})
	}
}

// TestParallelEvaluateDeterministic checks the evaluation path too: a model
// trained under parallel execution scores identically to one trained
// serially (the replica weights must match bit-for-bit for this to hold).
func TestParallelEvaluateDeterministic(t *testing.T) {
	ds := eqDataset(t)
	score := func(parallel bool) float64 {
		prev := sim.SetParallel(parallel)
		defer sim.SetParallel(prev)
		m := sim.NewMachine(sim.DGXA100(1))
		opts := eqOpts("gcn")
		opts.RealWorkers = 2
		tr, err := train.New(m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunEpoch()
		acc, err := tr.Evaluate(ds.Val, 128)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	if s, p := score(false), score(true); s != p {
		t.Errorf("eval accuracy serial %v vs parallel %v", s, p)
	}
}
