package train

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"wholegraph/internal/core"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// graphRun trains a fresh model for the given epochs and returns the stats,
// the final parameter values of every replica, the trainer, and the machine.
func graphRun(t *testing.T, opts Options, nodes, epochs int) ([]EpochStats, [][][]float32, *Trainer, *sim.Machine) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(nodes))
	ds := smallDataset(t)
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats []EpochStats
	for e := 0; e < epochs; e++ {
		stats = append(stats, tr.RunEpoch())
	}
	var params [][][]float32
	for _, mdl := range tr.Models {
		var ps [][]float32
		for _, p := range mdl.Params().Params() {
			v := make([]float32, len(p.W.V))
			copy(v, p.W.V)
			ps = append(ps, v)
		}
		params = append(params, ps)
	}
	return stats, params, tr, m
}

func compareRuns(t *testing.T, label string, aStats, bStats []EpochStats, aParams, bParams [][][]float32) {
	t.Helper()
	for e := range aStats {
		if aStats[e].Loss != bStats[e].Loss || aStats[e].TrainAcc != bStats[e].TrainAcc {
			t.Errorf("%s: epoch %d loss/acc differ: %v/%v vs %v/%v", label, e+1,
				aStats[e].Loss, aStats[e].TrainAcc, bStats[e].Loss, bStats[e].TrainAcc)
		}
	}
	for w := range aParams {
		for pi := range aParams[w] {
			for i := range aParams[w][pi] {
				if aParams[w][pi][i] != bParams[w][pi][i] {
					t.Fatalf("%s: worker %d param %d elem %d: %v vs %v", label,
						w, pi, i, aParams[w][pi][i], bParams[w][pi][i])
				}
			}
		}
	}
}

// TestCaptureGraphBitIdentical is the correctness anchor of step
// capture/replay: for every architecture, training with Schedule must
// produce bit-identical losses, accuracies and final parameters to eager
// execution — replay re-runs the same math in the same order, including the
// dropout RNG draws — while the worker captures once and replays every
// later step.
func TestCaptureGraphBitIdentical(t *testing.T) {
	for _, arch := range []string{"gcn", "graphsage", "gat", "gin"} {
		t.Run(arch, func(t *testing.T) {
			opts := smallOpts(arch)
			opts.Batch = 8 // several iterations per epoch
			eager := opts
			graph := opts
			graph.Schedule = true
			eStats, eParams, _, _ := graphRun(t, eager, 1, 3)
			gStats, gParams, gtr, _ := graphRun(t, graph, 1, 3)
			compareRuns(t, arch, eStats, gStats, eParams, gParams)
			gc := gtr.GraphStats()
			if gc.Captures == 0 || gc.Replays == 0 {
				t.Errorf("%s: expected captures and replays, got %d/%d", arch, gc.Captures, gc.Replays)
			}
			if gc.Captures != 1 {
				t.Errorf("%s: %d captures for one worker, want 1", arch, gc.Captures)
			}
		})
	}
}

// TestCaptureGraphReducesEpochTime pins the virtual-time claim: once the
// step is captured, a replay-only epoch must be strictly faster than the
// same eager epoch (same seeds, identical compute) because replay charges
// one graph launch instead of one kernel launch per kernel.
func TestCaptureGraphReducesEpochTime(t *testing.T) {
	opts := smallOpts("graphsage")
	opts.Batch = 8
	eager := opts
	graph := opts
	graph.Schedule = true
	eStats, _, _, _ := graphRun(t, eager, 1, 4)
	gStats, _, gtr, _ := graphRun(t, graph, 1, 4)
	last := len(gStats) - 1
	if gStats[last].EpochTime >= eStats[last].EpochTime {
		t.Errorf("replay epoch %.6gs not faster than eager %.6gs",
			gStats[last].EpochTime, eStats[last].EpochTime)
	}
	if gc := gtr.GraphStats(); gc.Replays == 0 || gc.Scheduled != gc.Replays {
		t.Fatalf("no scheduled replays happened; time comparison is meaningless: %+v", gc)
	}
	if gStats[last].Loss != eStats[last].Loss {
		t.Errorf("loss drifted: graph %v eager %v", gStats[last].Loss, eStats[last].Loss)
	}
}

// TestCaptureGraphComposes runs capture/replay together with the prefetch
// pipeline and bucketed gradient overlap: all three overlays on, results
// still bit-identical to the plain eager path, and every worker captures
// once.
func TestCaptureGraphComposes(t *testing.T) {
	opts := smallOpts("graphsage")
	opts.Batch = 8
	opts.RealWorkers = 2
	plain := opts
	all := opts
	all.Schedule = true
	all.Pipeline = true
	all.OverlapGrads = true
	pStats, pParams, _, _ := graphRun(t, plain, 1, 3)
	aStats, aParams, atr, _ := graphRun(t, all, 1, 3)
	compareRuns(t, "pipeline+overlap+graph", pStats, aStats, pParams, aParams)
	gc := atr.GraphStats()
	if gc.Replays == 0 {
		t.Error("composed run never replayed")
	}
	if gc.Captures != int64(opts.RealWorkers) {
		t.Errorf("%d captures for %d workers, want one per worker", gc.Captures, opts.RealWorkers)
	}
}

// TestCaptureGraphSerialParallelEquivalence checks the replay path under
// real worker goroutines (the -race gate): stats, capture counters and
// device clocks must match the serial reference bit-for-bit.
func TestCaptureGraphSerialParallelEquivalence(t *testing.T) {
	run := func(parallel bool) ([]EpochStats, GraphCounters, []float64) {
		prev := sim.SetParallel(parallel)
		defer sim.SetParallel(prev)
		opts := smallOpts("gcn")
		opts.Batch = 8
		opts.RealWorkers = 3
		opts.Schedule = true
		opts.OverlapGrads = true
		stats, _, tr, m := graphRun(t, opts, 1, 3)
		var clocks []float64
		for _, d := range m.Devs {
			clocks = append(clocks, d.Span())
		}
		return stats, tr.GraphStats(), clocks
	}

	prevProcs := runtime.GOMAXPROCS(1)
	serialStats, serialGC, serialClocks := run(false)
	runtime.GOMAXPROCS(prevProcs)
	parStats, parGC, parClocks := run(true)

	if serialGC.Replays == 0 {
		t.Fatalf("no replays happened: %+v", serialGC)
	}
	if serialGC != parGC {
		t.Errorf("graph counters differ:\n serial   %+v\n parallel %+v", serialGC, parGC)
	}
	for e := range serialStats {
		if serialStats[e] != parStats[e] {
			t.Errorf("epoch %d stats differ:\n serial   %+v\n parallel %+v", e+1, serialStats[e], parStats[e])
		}
	}
	for i := range serialClocks {
		if serialClocks[i] != parClocks[i] {
			t.Errorf("clock %d: serial %v vs parallel %v", i, serialClocks[i], parClocks[i])
		}
	}
}

// featSwapLoader hands out one batch object from every build, whose Feat
// it points at a header of its own, a different one from build to build:
// the batch object stays while the structure under it moves.
type featSwapLoader struct {
	*core.Loader
	batch gnn.Batch
	feats [2]tensor.Dense
	n     int
}

func (l *featSwapLoader) BuildBatch(targets []int64) (*gnn.Batch, core.Timing) {
	b, tm := l.Loader.BuildBatch(targets)
	f := &l.feats[l.n%2]
	l.n++
	*f = *b.Feat
	l.batch = gnn.Batch{Blocks: b.Blocks, Feat: f, Labels: b.Labels}
	return &l.batch, tm
}

// TestCaptureGraphOnePerWorker: a worker's step graph reads every batch
// through the worker's own input header, so it does not depend on which
// batch object it saw. Under a loader that hands out a new batch object
// from every build, and under one that keeps its batch object but swaps
// the Feat header under it, each worker captures once and replays every
// later step, with losses, accuracies and final parameters bit-identical
// to Schedule=false — on one worker, and on two real workers run serially
// and on goroutines.
func TestCaptureGraphOnePerWorker(t *testing.T) {
	ds := smallDataset(t)
	loaders := map[string]func(*core.Store, Options) func(int, *sim.Device) BatchLoader{
		"fresh-batches": func(s *core.Store, o Options) func(int, *sim.Device) BatchLoader {
			return func(w int, dev *sim.Device) BatchLoader {
				return freshBatchLoader{core.NewLoader(s, dev, o.Fanouts, o.Seed+int64(w))}
			}
		},
		"swapped-feat": func(s *core.Store, o Options) func(int, *sim.Device) BatchLoader {
			return func(w int, dev *sim.Device) BatchLoader {
				return &featSwapLoader{Loader: core.NewLoader(s, dev, o.Fanouts, o.Seed+int64(w))}
			}
		},
	}
	run := func(mk func(*core.Store, Options) func(int, *sim.Device) BatchLoader, opts Options, parallel bool) ([]EpochStats, [][][]float32, *Trainer) {
		prev := sim.SetParallel(parallel)
		defer sim.SetParallel(prev)
		m := sim.NewMachine(sim.DGXA100(1))
		store, err := core.NewStore(m, 0, ds)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewCustom(m, ds, opts, mk(store, opts.Normalize()))
		if err != nil {
			t.Fatal(err)
		}
		var stats []EpochStats
		for e := 0; e < 3; e++ {
			stats = append(stats, tr.RunEpoch())
		}
		var params [][][]float32
		for _, mdl := range tr.Models {
			var ps [][]float32
			for _, p := range mdl.Params().Params() {
				ps = append(ps, slices.Clone(p.W.V))
			}
			params = append(params, ps)
		}
		return stats, params, tr
	}
	for name, mk := range loaders {
		for _, c := range []struct {
			workers  int
			parallel bool
		}{{1, false}, {2, false}, {2, true}} {
			t.Run(fmt.Sprintf("%s/workers=%d/parallel=%v", name, c.workers, c.parallel), func(t *testing.T) {
				opts := smallOpts("graphsage")
				opts.Batch = 8
				opts.RealWorkers = c.workers
				eStats, eParams, _ := run(mk, opts, c.parallel)
				opts.Schedule = true
				gStats, gParams, gtr := run(mk, opts, c.parallel)
				compareRuns(t, name, eStats, gStats, eParams, gParams)
				steps := int64(len(gStats) * gStats[0].Iters * c.workers)
				want := GraphCounters{Captures: int64(c.workers), Replays: steps - int64(c.workers)}
				want.Scheduled = want.Replays
				if gc := gtr.GraphStats(); gc != want || want.Replays == 0 {
					t.Errorf("%s: step graphs %+v over %d steps, want %+v", name, gc, steps, want)
				}
				for w := range gtr.gs {
					if gtr.gs[w].graph == nil {
						t.Errorf("%s: worker %d holds no step graph", name, w)
					}
				}
			})
		}
	}
}

// TestCaptureGraphEvaluateInterleaved interleaves Evaluate (which rebinds the
// parameters onto the evaluation tape) with replayed training epochs: a
// replayed step must rebind the parameters back to the captured tape,
// keeping both the training losses and the evaluation scores bit-identical
// to eager.
func TestCaptureGraphEvaluateInterleaved(t *testing.T) {
	ds := smallDataset(t)
	run := func(capture bool) (losses, evals []float64) {
		m := sim.NewMachine(sim.DGXA100(1))
		opts := smallOpts("graphsage")
		opts.Batch = 8
		opts.Schedule = capture
		tr, err := New(m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			losses = append(losses, tr.RunEpoch().Loss)
			acc, err := tr.Evaluate(ds.Val, 64)
			if err != nil {
				t.Fatal(err)
			}
			evals = append(evals, acc)
		}
		if gc := tr.GraphStats(); capture && (gc.Replays == 0 || gc.Scheduled != gc.Replays) {
			t.Errorf("no scheduled replays between evaluations: %+v", gc)
		}
		return losses, evals
	}
	eLosses, eEvals := run(false)
	gLosses, gEvals := run(true)
	for e := range eLosses {
		if eLosses[e] != gLosses[e] {
			t.Errorf("epoch %d loss: eager %v graph %v", e+1, eLosses[e], gLosses[e])
		}
		if eEvals[e] != gEvals[e] {
			t.Errorf("epoch %d eval: eager %v graph %v", e+1, eEvals[e], gEvals[e])
		}
	}
}

// TestReplayEpochAllocs pins the host side of capture/replay: once the step
// is captured, a replay epoch — no re-recording, the backward reusing the
// last pass's gradient buffers — allocates no more than the eager steady
// state, and stays under the same per-iteration budget (epochAllocBudget).
func TestReplayEpochAllocs(t *testing.T) {
	prev := sim.SetParallel(false)
	defer sim.SetParallel(prev)

	measure := func(capture bool) (perIter float64, iters int) {
		m := sim.NewMachine(sim.DGXA100(1))
		ds := smallDataset(t)
		opts := smallOpts("graphsage")
		opts.Batch = 8
		opts.Schedule = capture
		tr, err := New(m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunEpoch() // warm-up + capture
		tr.RunEpoch()
		tr.RunEpoch()
		iters = tr.ItersPerEpoch()
		if iters == 0 {
			t.Fatal("no iterations per epoch")
		}
		n := testing.AllocsPerRun(5, func() {
			tr.RunEpoch()
		})
		if gc := tr.GraphStats(); capture && (gc.Replays == 0 || gc.Scheduled != gc.Replays) {
			t.Fatalf("no scheduled replays: %+v", gc)
		}
		return n / float64(iters), iters
	}

	eagerPerIter, _ := measure(false)
	replayPerIter, iters := measure(true)
	t.Logf("allocs/iter over %d iters: eager %.1f, replay %.1f (budget %.2f)",
		iters, eagerPerIter, replayPerIter, epochAllocBudget)
	if replayPerIter > epochAllocBudget {
		t.Fatalf("replay epoch allocated %.1f times per iteration, budget %.2f", replayPerIter, epochAllocBudget)
	}
	if replayPerIter > eagerPerIter {
		t.Errorf("replay allocations %.1f/iter above eager %.1f/iter", replayPerIter, eagerPerIter)
	}
}

// TestGradBucketCoalescer checks the byte-threshold bucket layout: a
// threshold of one byte gives one bucket per parameter, a huge threshold
// coalesces everything into one, and under any threshold every bucket
// except the last closed at or above the cap.
func TestGradBucketCoalescer(t *testing.T) {
	layout := func(bucketBytes int) *overlapState {
		m := sim.NewMachine(sim.DGXA100(1))
		ds := smallDataset(t)
		opts := smallOpts("graphsage")
		opts.OverlapGrads = true
		tr, err := New(m, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.bucketCap = bucketBytes
		tr.ensureOverlap()
		return tr.ov
	}

	nParams := func() int {
		m := sim.NewMachine(sim.DGXA100(1))
		tr, err := New(m, smallDataset(t), smallOpts("graphsage"))
		if err != nil {
			t.Fatal(err)
		}
		return len(tr.Models[0].Params().Params())
	}()

	if s := layout(1); len(s.buckets) != nParams {
		t.Errorf("1-byte cap: %d buckets for %d params", len(s.buckets), nParams)
	}
	if s := layout(1 << 30); len(s.buckets) != 1 {
		t.Errorf("1GiB cap: %d buckets, want 1", len(s.buckets))
	}
	s := layout(4 << 10)
	if len(s.buckets) <= 1 || len(s.buckets) >= nParams {
		t.Errorf("4KiB cap: %d buckets, want a proper coalescing between 1 and %d", len(s.buckets), nParams)
	}
	for b := 0; b < len(s.buckets)-1; b++ {
		if s.bucketBytes[b] < 4<<10 {
			t.Errorf("bucket %d closed at %g bytes, below the 4KiB cap", b, s.bucketBytes[b])
		}
	}
	for pi, b := range s.paramBucket {
		found := false
		for _, q := range s.buckets[b] {
			if q == pi {
				found = true
			}
		}
		if !found {
			t.Errorf("param %d missing from its bucket %d", pi, b)
		}
	}
}
