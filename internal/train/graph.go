package train

import (
	"fmt"
	"slices"

	"wholegraph/internal/autograd"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sched"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
)

// Step capture/replay (Options.CaptureGraph): the training loop re-runs an
// identical op sequence every iteration, yet the eager path re-records the
// tape, re-dispatches every op and pays KernelLaunch per kernel — the host
// overhead CUDA Graphs eliminate. Here the first iteration on each batch
// face runs eagerly on a tape of its own, which the step keeps instead of
// resetting: a kept tape is the captured step. Later iterations on the same
// face replay it (autograd.Tape.Replay runs the same records' forwards into
// the same buffers, and the backward reuses the last pass's gradient
// buffers): no re-recording, only parameter rebinding, and the device
// charges one GraphLaunch instead of one KernelLaunch per kernel
// (sim.BeginGraphReplay). Loss/accuracy, gradient averaging and the
// optimizer stay live outside the tape, so losses, gradients and model
// state are bit-identical to eager execution.
//
// Captures tolerate varying row counts (every kernel reads shapes from the
// live block/feature buffers); they are keyed by batch identity and
// invalidated when the batch's structure moves (feature tensor or block
// pointers replaced), falling back to an eager re-capture. Loaders that
// never reuse batch objects (the host-memory baselines) blow through
// maxGraphsPerWorker and drop to permanent eager fallback, releasing their
// graphs.

// maxGraphsPerWorker bounds how many captured step graphs a worker keeps.
// The WholeGraph loader's two batch faces need two; anything past this means
// the loader does not reuse batch objects and capture cannot pay off.
const maxGraphsPerWorker = 4

// stepResult is one worker's loss/accuracy from a training step.
type stepResult struct {
	loss, acc float64
}

// stepGraph is one captured training step for one batch face: its kept
// tape.
type stepGraph struct {
	tape   *autograd.Tape
	logits *autograd.Var
	grad   *tensor.Dense // loss-gradient seed, resized per replay
	// paramVars snapshots the capture tape's parameter bindings so replays
	// can point the optimizer back at them.
	paramVars []*autograd.Var
	// Structural identity at capture: replay is valid only while the batch
	// still presents these exact objects.
	feat   *tensor.Dense
	blocks []*spops.SubCSR
}

// workerGraphs is one real worker's capture machinery. The trainer keeps one
// per worker, and each worker touches only its own inside the parallel
// region, mirroring device ownership. A worker with Fallbacks > 0 runs
// eagerly for good and keeps no graph.
type workerGraphs struct {
	graphs map[*gnn.Batch]*stepGraph
	sch    *sched.Recorder // the whole-step scheduler's (Options.Schedule)
	count  GraphCounters
}

// GraphCounters aggregates the step-graph machinery's counters across
// workers. All zero unless Options.CaptureGraph ran.
type GraphCounters struct {
	Captures      int64 `json:"captures"`      // eager-priced capture iterations
	Replays       int64 `json:"replays"`       // iterations replayed from a captured graph
	Invalidations int64 `json:"invalidations"` // captures dropped because batch structure moved
	Fallbacks     int64 `json:"fallbacks"`     // workers that dropped to permanent eager fallback
	Scheduled     int64 `json:"scheduled"`     // replays routed through the whole-step scheduler
}

// Add accumulates o into c.
func (c *GraphCounters) Add(o GraphCounters) {
	c.Captures += o.Captures
	c.Replays += o.Replays
	c.Invalidations += o.Invalidations
	c.Fallbacks += o.Fallbacks
	c.Scheduled += o.Scheduled
}

// Active reports whether the capture machinery ran at all.
func (c GraphCounters) Active() bool { return c.Captures+c.Replays+c.Fallbacks > 0 }

// String is the counters' one-line report.
func (c GraphCounters) String() string {
	return fmt.Sprintf("step graphs: %d captures / %d replays (%d scheduled), %d invalidations, %d fallbacks",
		c.Captures, c.Replays, c.Scheduled, c.Invalidations, c.Fallbacks)
}

// GraphStats sums the capture machinery's counters across workers.
func (t *Trainer) GraphStats() GraphCounters {
	var c GraphCounters
	for _, wg := range t.gs {
		c.Add(wg.count)
	}
	return c
}

func (t *Trainer) ensureGraphState() {
	if t.gs != nil {
		return
	}
	t.gs = make([]workerGraphs, len(t.Models))
	for w := range t.gs {
		t.gs[w].graphs = make(map[*gnn.Batch]*stepGraph, maxGraphsPerWorker)
		if t.Opts.Schedule {
			t.gs[w].sch = sched.NewRecorder()
		}
	}
}

// graphFor looks up worker w's captured graph for b. It returns the graph to
// replay, or nil and whether this eager step should capture one: a graph
// whose batch structure moved is dropped and re-captured, and a worker whose
// loader does not reuse batch objects falls back to eager for good, dropping
// the graphs it holds. Runs inside the parallel region.
func (t *Trainer) graphFor(w int, b *gnn.Batch) (g *stepGraph, capture bool) {
	if !t.Opts.CaptureGraph {
		return nil, false
	}
	wg := &t.gs[w]
	c := &wg.count
	if c.Fallbacks > 0 {
		return nil, false
	}
	if g, ok := wg.graphs[b]; ok {
		if b.Feat == g.feat && slices.Equal(b.Blocks, g.blocks) {
			c.Replays++
			if wg.sch != nil {
				c.Scheduled++
			}
			return g, false
		}
		// Structure moved under the same batch object: drop and re-capture.
		delete(wg.graphs, b)
		c.Invalidations++
	}
	if len(wg.graphs) >= maxGraphsPerWorker {
		// The loader is not reusing batch objects; capture cannot amortize.
		c.Fallbacks++
		clear(wg.graphs)
		return nil, false
	}
	c.Captures++
	return nil, true
}

// step is one worker's training step on batch b: forward, loss and
// accuracy, backward. Eagerly it runs on the worker's arena tape, Reset
// first; a capture records on a fresh tape over the same arena that b's
// step graph then keeps; and a replay re-runs a kept tape inside one graph
// launch (sim.BeginGraphReplay) — with Options.Schedule through the
// whole-step scheduler (DESIGN.md §13), which records the replay's charges
// into a DAG instead of the clocks. Host math runs in the recorded order on every
// path, so losses, gradients and model state are bit-identical to eager.
// Runs inside the parallel region.
func (t *Trainer) step(w int, b *gnn.Batch) stepResult {
	mdl, dev := t.Models[w], t.loaders[w].Device()
	g, capture := t.graphFor(w, b)
	var tp *autograd.Tape
	var logits *autograd.Var
	var grad *tensor.Dense
	var rec *sched.Recorder
	if g != nil {
		tp, logits, grad = g.tape, g.logits, g.grad
		mdl.Params().RebindVars(g.paramVars)
		if rec = t.gs[w].sch; rec != nil {
			rec.Reset()
			dev.Record(&rec.Charges)
			tp.SetReplayObserver(rec)
		}
		dev.BeginGraphReplay("step-graph")
		tp.Replay()
		if rec != nil {
			rec.LossNode(logits)
		}
		grad.ResizeUninit(logits.Value.R, logits.Value.C) // CrossEntropy sets every element
	} else {
		tp = t.tapes[w]
		if capture {
			// The kept tape draws from the worker's arena too: one goroutine
			// owns them all, and its replays' gradients share one pool.
			tp = autograd.NewTapeArena(tp.Arena())
		} else {
			tp.Reset()
		}
		logits = mdl.Forward(dev, tp, b, true)
		grad = tp.NewTensor(logits.Value.R, logits.Value.C)
	}
	// The loss layer stays outside the graph: its output feeds the host.
	res := stepResult{
		loss: tensor.CrossEntropy(logits.Value, b.Labels, grad),
		acc:  tensor.Accuracy(logits.Value, b.Labels),
	}
	// Under OverlapGrads backward reports when each parameter bucket is
	// final, so the orchestrator can gate that bucket's AllReduce there; a
	// scheduled step takes its gates from the schedule instead.
	var watch []*autograd.Var
	var onReady func(int)
	if t.Opts.OverlapGrads && rec == nil {
		watch, onReady = t.watchBuckets(w, mdl.Params())
	}
	tp.BackwardHooked(logits, grad, watch, onReady)
	switch {
	case capture:
		t.gs[w].graphs[b] = &stepGraph{
			tape:      tp,
			logits:    logits,
			grad:      grad,
			paramVars: mdl.Params().BoundVars(nil),
			feat:      b.Feat,
			blocks:    slices.Clone(b.Blocks),
		}
	case rec != nil:
		t.scheduled(w, dev, rec, g)
	case g != nil:
		dev.EndGraphReplay()
	}
	return res
}

// scheduled list-schedules the DAG rec recorded over a replayed step onto
// dev's compute and copy streams and issues its charges at their scheduled
// positions. Under OverlapGrads bucket b's AllReduce gate is the scheduled
// end of its last gradient-producing node (the eager backward's clock-read
// hooks would panic on a recording device). The graph bracket stays open:
// the charges were priced inside it, and RunEpoch closes it after the
// optimizer, so loss, gradient sync and optimizer replay inside the step's
// one graph launch.
func (t *Trainer) scheduled(w int, dev *sim.Device, rec *sched.Recorder, g *stepGraph) {
	g.tape.SetReplayObserver(nil)
	dev.Record(nil)
	makespan := rec.Schedule(dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy))
	rec.Apply(dev)
	if !t.Opts.OverlapGrads {
		return
	}
	s := t.ov
	for bkt, params := range s.buckets {
		mr := 0.0
		for _, pi := range params {
			mr = max(mr, rec.GradReadyTime(g.paramVars[pi], makespan))
		}
		s.readyAt[w][bkt] = mr
	}
}
