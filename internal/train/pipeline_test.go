package train_test

import (
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

// runPipelineEpochs builds a fresh WholeGraph trainer over a fresh machine
// and trains for the given epochs, returning the trainer, its per-epoch
// stats and a final validation accuracy. Mirrors runEpochs but keeps the
// trainer so callers can compare model parameters.
func runPipelineEpochs(t *testing.T, epochs int, pipeline bool) (*train.Trainer, []train.EpochStats, float64) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	ds := eqDataset(t)
	opts := eqOpts("graphsage")
	opts.RealWorkers = 2
	opts.Batch = 8 // several iterations per epoch, so cross-iteration overlap shows up
	opts.Pipeline = pipeline
	tr, err := train.New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats []train.EpochStats
	for e := 0; e < epochs; e++ {
		stats = append(stats, tr.RunEpoch())
	}
	acc, err := tr.Evaluate(ds.Val, 128)
	if err != nil {
		t.Fatal(err)
	}
	return tr, stats, acc
}

// TestPipelinedSequentialEquivalence is the correctness anchor for the
// overlapped batch pipeline (ISSUE 3), mirroring the serial/parallel suite
// of ISSUE 1: prefetching batches on the copy stream must leave model
// parameters, losses and accuracies bit-identical to sequential training —
// the loader consumes the same targets through the same RNG streams in the
// same real order — while strictly improving the virtual epoch time.
func TestPipelinedSequentialEquivalence(t *testing.T) {
	const epochs = 2
	seqTr, seqStats, seqEval := runPipelineEpochs(t, epochs, false)
	pipeTr, pipeStats, pipeEval := runPipelineEpochs(t, epochs, true)

	for e := range seqStats {
		s, p := seqStats[e], pipeStats[e]
		if s.Loss != p.Loss || s.TrainAcc != p.TrainAcc || s.Iters != p.Iters {
			t.Errorf("epoch %d training outputs differ:\n sequential %+v\n pipelined  %+v", e+1, s, p)
		}
		if p.EpochTime >= s.EpochTime {
			t.Errorf("epoch %d: pipelined epoch time %g >= sequential %g (no overlap win)",
				e+1, p.EpochTime, s.EpochTime)
		}
		// The per-stage busy times are identical work, just charged to the
		// copy stream; the critical path is where the two runs differ.
		if s.Timing.Sample != p.Timing.Sample || s.Timing.Gather != p.Timing.Gather {
			t.Errorf("epoch %d: stage busy times differ: sequential %+v pipelined %+v",
				e+1, s.Timing, p.Timing)
		}
		if p.Timing.Crit >= s.Timing.Crit {
			t.Errorf("epoch %d: pipelined critical path %g >= sequential %g",
				e+1, p.Timing.Crit, s.Timing.Crit)
		}
	}
	if seqEval != pipeEval {
		t.Errorf("eval accuracy sequential %v vs pipelined %v", seqEval, pipeEval)
	}
	for w := range seqTr.Models {
		sp := seqTr.Models[w].Params().Params()
		pp := pipeTr.Models[w].Params().Params()
		if len(sp) != len(pp) {
			t.Fatalf("worker %d: param count %d vs %d", w, len(sp), len(pp))
		}
		for i := range sp {
			sv, pv := sp[i].W.V, pp[i].W.V
			if len(sv) != len(pv) {
				t.Fatalf("worker %d param %s: %d vs %d elements", w, sp[i].Name, len(sv), len(pv))
			}
			for j := range sv {
				if sv[j] != pv[j] {
					t.Fatalf("worker %d param %s[%d]: sequential %v vs pipelined %v",
						w, sp[i].Name, j, sv[j], pv[j])
				}
			}
		}
	}
}

// TestPipelinedSerialParallelEquivalence checks the pipelined path under
// both execution modes of sim.RunParallel: goroutine fan-out must not
// change stats or clocks when loaders juggle two streams.
func TestPipelinedSerialParallelEquivalence(t *testing.T) {
	run := func(parallel bool) ([]train.EpochStats, float64) {
		prev := sim.SetParallel(parallel)
		defer sim.SetParallel(prev)
		tr, stats, eval := runPipelineEpochs(t, 2, true)
		_ = tr
		return stats, eval
	}
	serialStats, serialEval := run(false)
	parStats, parEval := run(true)
	for e := range serialStats {
		if serialStats[e] != parStats[e] {
			t.Errorf("epoch %d stats differ:\n serial   %+v\n parallel %+v",
				e+1, serialStats[e], parStats[e])
		}
	}
	if serialEval != parEval {
		t.Errorf("eval accuracy serial %v vs parallel %v", serialEval, parEval)
	}
}

// TestPipelinedOverlapBound quantifies the win: the virtual time saved per
// epoch must reach the overlap bound min(sample+gather, train) scaled by
// the (measured-1)/measured prologue factor — iteration 0 has nothing to
// hide behind. A small tolerance absorbs the shorter tail batch and event
// waits.
func TestPipelinedOverlapBound(t *testing.T) {
	_, seqStats, _ := runPipelineEpochs(t, 1, false)
	_, pipeStats, _ := runPipelineEpochs(t, 1, true)
	s, p := seqStats[0], pipeStats[0]

	build := s.Timing.Sample + s.Timing.Gather
	bound := build
	if s.Timing.Train < bound {
		bound = s.Timing.Train
	}
	m := float64(s.Iters)
	bound *= (m - 1) / m
	saved := s.EpochTime - p.EpochTime
	t.Logf("sequential %.3fms pipelined %.3fms saved %.3fms bound %.3fms (build %.3fms train %.3fms)",
		s.EpochTime*1e3, p.EpochTime*1e3, saved*1e3, bound*1e3, build*1e3, s.Timing.Train*1e3)
	if saved < 0.85*bound {
		t.Errorf("saved %g s < 85%% of overlap bound %g s", saved, bound)
	}
	// The saving can also never exceed the total extraction time.
	if saved > build {
		t.Errorf("saved %g s exceeds total extraction time %g s", saved, build)
	}
	// Sequentially the critical path is the whole iteration; pipelined the
	// per-stage busy sum exceeds it (stages overlap).
	if got, want := s.Timing.Crit, s.Timing.Total(); got < 0.999*want || got > 1.001*want {
		t.Errorf("sequential Crit %g != Total %g", got, want)
	}
	if p.Timing.Crit >= p.Timing.Total() {
		t.Errorf("pipelined Crit %g >= Total %g: no overlap visible", p.Timing.Crit, p.Timing.Total())
	}
}
