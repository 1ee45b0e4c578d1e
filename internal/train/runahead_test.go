package train_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

// epochRun is everything a short training run leaves behind that a caller
// can observe: epoch statistics, an evaluation between epochs, the step-graph
// counters, and every device's two stream clocks, Stats and trace.
type epochRun struct {
	stats  []train.EpochStats
	acc    float64
	graphs train.GraphCounters
	clocks [][2]float64
	devs   []sim.DeviceStats
	trace  []sim.Interval
}

// runAheadRun trains two epochs, evaluates, and trains a third, on a machine
// of the given number of nodes, with parallel execution on (each worker's
// loader is told its epoch and builds ahead on a second goroutine, the next
// epoch's first batches during the last step) or off (everything inline on
// the caller).
func runAheadRun(t *testing.T, ds *dataset.Dataset, opts train.Options, nodes int, parallel bool) epochRun {
	t.Helper()
	prev := sim.SetParallel(parallel)
	defer sim.SetParallel(prev)
	m := sim.NewMachine(sim.DGXA100(nodes))
	opts.Trace = true
	tr, err := train.New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var r epochRun
	epoch := func() {
		r.stats = append(r.stats, tr.RunEpoch())
	}
	epoch()
	epoch()
	// Evaluate builds through worker 0's loader while its first builds of
	// the third epoch are speculative: the third epoch matches only if the
	// evaluation undid them and found, and left, the sampler where an inline
	// run does.
	if r.acc, err = tr.Evaluate(ds.Val, 96); err != nil {
		t.Fatal(err)
	}
	epoch()
	r.graphs = tr.GraphStats()
	for _, d := range m.Devs {
		r.clocks = append(r.clocks, [2]float64{d.StreamNow(sim.StreamCompute), d.StreamNow(sim.StreamCopy)})
		r.devs = append(r.devs, d.Stats)
	}
	r.trace = tr.Worker0Device().Trace()
	return r
}

// runAheadOpts is eqOpts at a batch size that gives every worker's 24-node
// shard six iterations per epoch, so five of six builds run ahead.
func runAheadOpts() train.Options {
	opts := eqOpts("graphsage")
	opts.Batch = 4
	return opts
}

// trimTrain cuts ds.Train so that it shards over 8 workers as k+1, k, k, …:
// with Batch = k worker 0 runs two iterations and every other worker has one
// batch, which the epoch loop wraps around to in the second.
func trimTrain(t *testing.T, ds *dataset.Dataset) (batch int) {
	t.Helper()
	n := len(ds.Train)
	n -= (n - 1) % 8
	if n < 17 {
		t.Fatalf("training set of %d too small to wrap", len(ds.Train))
	}
	ds.Train = ds.Train[:n]
	return n / 8
}

// TestRunAheadEqualsInline pins run-ahead as a pure refactor at trainer
// level: with sim.SetParallel on every epoch is planned, batches are built
// ahead of their steps and each epoch's first ones during the step before,
// with it off nothing is, and the two runs agree bit for bit in every epoch
// statistic (Timing included), the evaluation between epochs, the step-graph
// counters, both stream clocks and the Stats of every device, and worker 0's
// trace — over resident, weighted and paged stores, one and three real
// workers, a shard whose batch list wraps, a capped epoch, the sequential and
// the pipelined loop, and the fully optimised two-node shape (GAT, captured
// and scheduled steps, overlapped gradients).
func TestRunAheadEqualsInline(t *testing.T) {
	plain := eqDataset(t)
	wspec := dataset.OgbnProducts.Scaled(0.001)
	wspec.Weighted = true
	weighted, err := dataset.Generate(wspec)
	if err != nil {
		t.Fatal(err)
	}
	wrapping := eqDataset(t)
	wrapBatch := trimTrain(t, wrapping)

	for _, tc := range []struct {
		name  string
		ds    *dataset.Dataset
		mod   func(*train.Options)
		nodes int
	}{
		{"resident", plain, func(o *train.Options) {}, 1},
		{"resident-3workers", plain, func(o *train.Options) { o.RealWorkers = 3 }, 1},
		{"wrapping-shard", wrapping, func(o *train.Options) { o.RealWorkers = 3; o.Batch = wrapBatch }, 1},
		{"capped", plain, func(o *train.Options) { o.RealWorkers = 2; o.MaxItersPerEpoch = 3 }, 1},
		{"weighted-gcn", weighted, func(o *train.Options) { o.Arch = "gcn" }, 1},
		{"captured", plain, func(o *train.Options) { o.Schedule = true }, 1},
		{"paged", plain, func(o *train.Options) {
			o.PagedFeatures, o.PagedTopo = true, true
			o.FeatPageRows, o.TopoPageEdges, o.PrefetchPages = 16, 256, 4
		}, 1},
		{"pipelined", plain, func(o *train.Options) { o.Pipeline = true; o.RealWorkers = 2 }, 1},
		{"pipelined-capped", plain, func(o *train.Options) { o.Pipeline = true; o.MaxItersPerEpoch = 1 }, 1},
		{"sched-2node", plain, func(o *train.Options) {
			o.Arch = "gat"
			o.Pipeline, o.Schedule, o.OverlapGrads = true, true, true
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := runAheadOpts()
			tc.mod(&opts)
			inline := runAheadRun(t, tc.ds, opts, tc.nodes, false)
			ahead := runAheadRun(t, tc.ds, opts, tc.nodes, true)
			for e := range inline.stats {
				if inline.stats[e] != ahead.stats[e] {
					t.Errorf("epoch %d: inline %+v\n run-ahead %+v", e+1, inline.stats[e], ahead.stats[e])
				}
			}
			if inline.acc != ahead.acc {
				t.Errorf("evaluation between epochs: inline %v, run-ahead %v", inline.acc, ahead.acc)
			}
			if inline.graphs != ahead.graphs {
				t.Errorf("step graphs inline %+v, run-ahead %+v", inline.graphs, ahead.graphs)
			}
			if !reflect.DeepEqual(inline.clocks, ahead.clocks) {
				t.Errorf("stream clocks differ:\n inline    %v\n run-ahead %v", inline.clocks, ahead.clocks)
			}
			if !reflect.DeepEqual(inline.devs, ahead.devs) {
				t.Error("DeviceStats differ")
			}
			if len(inline.trace) == 0 || !reflect.DeepEqual(inline.trace, ahead.trace) {
				t.Errorf("worker 0 trace: %d intervals inline, %d run-ahead, or contents differ", len(inline.trace), len(ahead.trace))
			}
			if opts.Schedule && inline.graphs.Captures != 2 {
				t.Errorf("%d step-graph captures, want one per face", inline.graphs.Captures)
			}
			if inline.stats[0].Iters < 2 {
				t.Fatalf("%d iteration per epoch: nothing to build ahead", inline.stats[0].Iters)
			}
			if tc.name == "wrapping-shard" && len(tc.ds.Train)/8 > opts.Batch {
				t.Fatalf("case does not wrap: shard of %d at batch %d", len(tc.ds.Train)/8, opts.Batch)
			}
		})
	}
}

// parentRunAhead is what the run of TestRunAheadMatchesParent produced on
// the parent of the run-ahead loader (commit b5df75f), where every batch was
// built at its call: the evaluation between epochs, and the next epoch's
// sampling time and duration — virtual times are functions of what the
// sampler drew, so they pin the state Evaluate found and left.
var parentRunAhead = struct {
	acc               float64
	sample, epochTime uint64
}{acc: 8.0 / 24, sample: 0x3f1c55c812191360, epochTime: 0x3f44969a5f750790}

func TestRunAheadMatchesParent(t *testing.T) {
	opts := runAheadOpts()
	opts.RealWorkers = 2
	r := runAheadRun(t, eqDataset(t), opts, 1, true)
	got := parentRunAhead
	got.acc = r.acc
	got.sample, got.epochTime = math.Float64bits(r.stats[2].Timing.Sample), math.Float64bits(r.stats[2].EpochTime)
	if got != parentRunAhead {
		t.Errorf("evaluation %v, third epoch Sample %#x EpochTime %#x; the parent gave %v, %#x, %#x",
			got.acc, got.sample, got.epochTime, parentRunAhead.acc, parentRunAhead.sample, parentRunAhead.epochTime)
	}
}

// TestNothingOutlivesRunEpoch: when RunEpoch returns its plans are drained
// and its speculative builds joined — no builder goroutine is left — and a
// trainer nobody holds is collected with everything it built, on the
// sequential and the pipelined loop.
func TestNothingOutlivesRunEpoch(t *testing.T) {
	prev := sim.SetParallel(true)
	defer sim.SetParallel(prev)
	builders := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return bytes.Count(buf, []byte("core.(*Loader).buildAhead"))
	}
	for _, pipelined := range []bool{false, true} {
		collected := make(chan struct{})
		func() {
			opts := runAheadOpts()
			opts.RealWorkers = 2
			opts.Pipeline = pipelined
			tr, err := train.New(sim.NewMachine(sim.DGXA100(1)), eqDataset(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(tr, func(*train.Trainer) { close(collected) })
			tr.RunEpoch()
			tr.RunEpoch()
		}()
		// The last builder reported before RunEpoch joined it; give its
		// goroutine the instant it needs to finish returning.
		for deadline := time.Now().Add(5 * time.Second); builders() > 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("pipelined=%v: %d builder goroutine(s) alive after RunEpoch returned", pipelined, builders())
			}
		}
		deadline := time.After(5 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-collected:
				break wait
			case <-deadline:
				t.Fatalf("pipelined=%v: a dropped trainer was not collected", pipelined)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}
