// Benchmarks regenerating the paper's tables and figures (one bench per
// experiment; see DESIGN.md for the index) plus microbenchmarks of the core
// ops. Reported custom metrics are virtual seconds or virtual GB/s from the
// machine simulation; ns/op measures the host cost of running the
// simulation itself.
//
//	go test -bench=. -benchmem
package wholegraph_test

import (
	"math/rand"
	"testing"

	"wholegraph"
	"wholegraph/internal/bench"
	"wholegraph/internal/sampling"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/unique"

	"wholegraph/internal/autograd"
	"wholegraph/internal/graph"
)

func benchCfg() bench.Config {
	return bench.Config{Quick: true, Scale: 2e-4, Epochs: 2, Seed: 1}
}

// --- One benchmark per paper table/figure ---

func BenchmarkTable1PointerChase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].P2PLatUs, "p2p-us")
			b.ReportMetric(rows[0].UMLatUs, "um-us")
		}
	}
}

func BenchmarkTable3Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Table4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.FullFeatPerGPU, "feat-GB/GPU")
		}
	}
}

func BenchmarkTable5EpochTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].SpeedupVsDGL, "speedup-vs-dgl")
			b.ReportMetric(rows[0].SpeedupVsPyG, "speedup-vs-pyg")
		}
	}
}

func BenchmarkFig7Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SegmentBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].BusBWGBs, "plateau-GB/s")
		}
	}
}

func BenchmarkFig9Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Gather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Speedup, "gather-speedup")
		}
	}
}

func BenchmarkFig11LayerBackends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig12(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(series[2].Mean*100, "wg-util-%")
		}
	}
}

func BenchmarkFig13MultiNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig13(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Speedup[3], "8node-speedup")
		}
	}
}

func BenchmarkSetupCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Setup(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the core ops (host cost of the real algorithms) ---

func BenchmarkAlg1Sampling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampling.SampleWithoutReplacement(30, 1000, rng)
	}
}

func BenchmarkAppendUnique(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	targets := make([]graph.GlobalID, 512)
	for i := range targets {
		targets[i] = graph.MakeGlobalID(i%8, int64(100000+i))
	}
	neighbors := make([]graph.GlobalID, 512*30)
	for i := range neighbors {
		v := rng.Intn(20000)
		neighbors[i] = graph.MakeGlobalID(v%8, int64(v))
	}
	ded := unique.NewDeduper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ded.AppendUnique(nil, targets, neighbors)
	}
}

// BenchmarkAppendUniqueSort measures the radix-sort ablation baseline on
// the same workload as BenchmarkAppendUnique.
func BenchmarkAppendUniqueSort(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	targets := make([]graph.GlobalID, 512)
	for i := range targets {
		targets[i] = graph.MakeGlobalID(i%8, int64(100000+i))
	}
	neighbors := make([]graph.GlobalID, 512*30)
	for i := range neighbors {
		v := rng.Intn(20000)
		neighbors[i] = graph.MakeGlobalID(v%8, int64(v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unique.AppendUniqueSort(nil, targets, neighbors)
	}
}

func BenchmarkSpMMNative(b *testing.B) {
	benchmarkSpMM(b, spops.BackendNative)
}

func BenchmarkSpMMPyGStyle(b *testing.B) {
	benchmarkSpMM(b, spops.BackendPyG)
}

func benchmarkSpMM(b *testing.B, be spops.Backend) {
	rng := rand.New(rand.NewSource(3))
	g := &spops.SubCSR{NumTargets: 512, NumNodes: 8000, RowPtr: []int64{0}}
	for t := 0; t < 512; t++ {
		for k := 0; k < 20; k++ {
			g.Col = append(g.Col, int32(rng.Intn(8000)))
		}
		g.RowPtr = append(g.RowPtr, int64(len(g.Col)))
	}
	g.DupCount = make([]int32, 8000)
	for _, c := range g.Col {
		g.DupCount[c]++
	}
	x := tensor.Randn(8000, 64, 1, rng)
	tp := autograd.NewTapeArena(tensor.NewArena())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		out := spops.SpMM(nil, be, g, tp.Param(x), nil, spops.AggMean)
		tp.Backward(out, tp.NewTensor(out.Value.R, out.Value.C))
	}
}

func BenchmarkEndToEndEpoch(b *testing.B) {
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.001))
	if err != nil {
		b.Fatal(err)
	}
	machine := wholegraph.NewDGXA100(1)
	tr, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch: "graphsage", Batch: 32, Fanouts: []int{5, 5}, Hidden: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last wholegraph.EpochStats
	for i := 0; i < b.N; i++ {
		last = tr.RunEpoch()
	}
	b.ReportMetric(last.EpochTime*1e3, "virtual-ms/epoch")
}

// benchmarkPipelineEpoch is the sequential-vs-overlapped pair behind
// EXPERIMENTS.md's pipeline pair: identical workloads (batch 8 so each epoch has
// several iterations to pipeline), differing only in whether the loader
// prefetches the next batch on the copy stream. ns/op is the host cost of
// running the simulation; virtual-ms/epoch is the modeled training time.
func benchmarkPipelineEpoch(b *testing.B, pipeline bool) {
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.001))
	if err != nil {
		b.Fatal(err)
	}
	machine := wholegraph.NewDGXA100(1)
	tr, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch: "graphsage", Batch: 8, Fanouts: []int{5, 5}, Hidden: 32,
		Pipeline: pipeline,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last wholegraph.EpochStats
	for i := 0; i < b.N; i++ {
		last = tr.RunEpoch()
	}
	b.ReportMetric(last.EpochTime*1e3, "virtual-ms/epoch")
	b.ReportMetric(last.Timing.Crit*1e3, "virtual-crit-ms")
}

func BenchmarkPipelineEpochSequential(b *testing.B) { benchmarkPipelineEpoch(b, false) }
func BenchmarkPipelineEpochOverlapped(b *testing.B) { benchmarkPipelineEpoch(b, true) }

// benchmarkGraphEpoch is the eager-vs-replay pair behind the step
// capture/replay claim: identical workloads, differing only in Schedule.
// The warm-up epochs outside the timer capture both loader slots, so ns/op
// and allocs/op of the replay side measure pure host dispatch of
// scheduled replays; virtual-ms/epoch carries the modeled graph-launch and
// scheduling win.
func benchmarkGraphEpoch(b *testing.B, capture bool) {
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.001))
	if err != nil {
		b.Fatal(err)
	}
	machine := wholegraph.NewDGXA100(1)
	tr, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch: "graphsage", Batch: 8, Fanouts: []int{5, 5}, Hidden: 32,
		Schedule: capture,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr.RunEpoch() // warm-up: captures both loader slots, pools settle
	tr.RunEpoch()
	tr.RunEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	var last wholegraph.EpochStats
	for i := 0; i < b.N; i++ {
		last = tr.RunEpoch()
	}
	b.ReportMetric(last.EpochTime*1e3, "virtual-ms/epoch")
}

func BenchmarkGraphEpochEager(b *testing.B)  { benchmarkGraphEpoch(b, false) }
func BenchmarkGraphEpochReplay(b *testing.B) { benchmarkGraphEpoch(b, true) }

// --- Benches for the extension modules ---

func BenchmarkAblationStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationStorage(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[2].GatherTime/rows[0].GatherTime, "pinned-vs-p2p")
		}
	}
}
