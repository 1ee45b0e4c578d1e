package train

import (
	"fmt"

	"wholegraph/internal/autograd"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sched"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
)

// Step capture/replay (Options.Schedule): the training loop re-runs an
// identical op sequence every iteration, yet the eager path re-records the
// tape, re-dispatches every op and pays KernelLaunch per kernel — the host
// overhead CUDA Graphs eliminate. Here a worker's first Schedule step runs
// eagerly on a tape of its own, which the step keeps instead of resetting:
// a kept tape is the captured step. Every later step replays it
// (autograd.Tape.Replay runs the same records' forwards into the same
// buffers, and the backward reuses the last pass's gradient buffers): no
// re-recording, only parameter rebinding, and the device charges one
// GraphLaunch instead of one KernelLaunch per kernel
// (sim.BeginGraphReplay), placed by the whole-step scheduler (DESIGN.md
// §13). Loss/accuracy, gradient averaging and the optimizer stay live
// outside the tape, so losses, gradients and model state are bit-identical
// to eager execution.
//
// A captured graph reads its inputs through fixed addresses: each worker
// owns one input header (a gnn.Batch, its Feat header and its SubCSR
// values), and every Schedule step binds the batch it is given into that
// header before the forward or the replay. Every kernel reads shapes live
// from the header, so one graph per worker serves every batch of every
// loader, whichever batch object the loader hands out.

// stepResult is one worker's loss/accuracy from a training step.
type stepResult struct {
	loss, acc float64
}

// stepGraph is one worker's captured training step: its kept tape.
type stepGraph struct {
	tape   *autograd.Tape
	logits *autograd.Var
	grad   *tensor.Dense // loss-gradient seed, resized per replay
	// paramVars snapshots the capture tape's parameter bindings so replays
	// can point the optimizer back at them.
	paramVars []*autograd.Var
}

// workerGraphs is one real worker's capture machinery. The trainer keeps one
// per worker, and each worker touches only its own inside the parallel
// region, mirroring device ownership.
type workerGraphs struct {
	// in is the input header the worker's step graph reads every batch
	// through; in.Feat points at feat and in.Blocks at blocks.
	in     gnn.Batch
	feat   tensor.Dense
	blocks []spops.SubCSR
	graph  *stepGraph // nil until the worker's first Schedule step captures it
	rec    *sched.Recorder
	count  GraphCounters
}

// bind copies b into the worker's input header and returns the header. The
// copy is O(layers) — slice headers and SubCSR values, as core.Loader.bind
// makes from a build body to a face — and b's buffers are read in place.
func (wg *workerGraphs) bind(b *gnn.Batch) *gnn.Batch {
	for i, blk := range b.Blocks {
		wg.blocks[i] = *blk
	}
	wg.feat = *b.Feat
	wg.in.Labels = b.Labels
	return &wg.in
}

// GraphCounters aggregates the step-graph machinery's counters across
// workers. All zero unless Options.Schedule ran. Invalidations and
// Fallbacks always read 0 and Scheduled always equals Replays: a capture
// never goes stale and a worker never falls back to eager, and every replay
// is scheduled. They stay because the benchmark module reads them.
type GraphCounters struct {
	Captures      int64 `json:"captures"`      // eager-priced capture iterations, one per worker
	Replays       int64 `json:"replays"`       // iterations replayed from a captured graph
	Invalidations int64 `json:"invalidations"` // always 0
	Fallbacks     int64 `json:"fallbacks"`     // always 0
	Scheduled     int64 `json:"scheduled"`     // replays routed through the whole-step scheduler (all of them)
}

// Add accumulates o into c.
func (c *GraphCounters) Add(o GraphCounters) {
	c.Captures += o.Captures
	c.Replays += o.Replays
	c.Scheduled += o.Scheduled
}

// Active reports whether the capture machinery ran at all.
func (c GraphCounters) Active() bool { return c.Captures+c.Replays > 0 }

// String is the counters' one-line report.
func (c GraphCounters) String() string {
	return fmt.Sprintf("step graphs: %d captures / %d replays (%d scheduled)",
		c.Captures, c.Replays, c.Scheduled)
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
		wg := &t.gs[w]
		wg.blocks = make([]spops.SubCSR, len(t.Opts.Fanouts))
		wg.in.Blocks = make([]*spops.SubCSR, len(wg.blocks))
		for i := range wg.blocks {
			wg.in.Blocks[i] = &wg.blocks[i]
		}
		wg.in.Feat = &wg.feat
		wg.rec = sched.NewRecorder()
	}
}

// step is one worker's training step on batch b: forward, loss and
// accuracy, backward. Eagerly it runs on the worker's arena tape, Reset
// first. Under Schedule it binds b into the worker's input header first;
// the worker's first such step records on a fresh tape over the same arena,
// which the worker's step graph then keeps, and every later one re-runs
// the kept tape inside one graph launch (sim.BeginGraphReplay) through the
// whole-step scheduler (DESIGN.md §13), which records the replay's charges
// into a DAG instead of the clocks. A replay's host math follows the tape's
// dependencies on up to tensor.Workers() goroutines while its charges and
// observers keep record order on this one (DESIGN.md §9), so losses,
// gradients, model state and clocks are bit-identical to eager. Runs inside
// the parallel region.
func (t *Trainer) step(w int, b *gnn.Batch) stepResult {
	mdl, dev := t.Models[w], t.loaders[w].Device()
	var wg *workerGraphs
	var g *stepGraph
	if t.Opts.Schedule {
		wg = &t.gs[w]
		b, g = wg.bind(b), wg.graph
	}
	var tp *autograd.Tape
	var logits *autograd.Var
	var grad *tensor.Dense
	if g != nil {
		wg.count.Replays++
		wg.count.Scheduled++
		rec := wg.rec
		tp, logits, grad = g.tape, g.logits, g.grad
		mdl.Params().RebindVars(g.paramVars)
		rec.Reset()
		dev.Record(&rec.Charges)
		tp.SetReplayObserver(rec)
		dev.BeginGraphReplay("step-graph")
		tp.Replay()
		rec.LossNode(logits)
		grad.ResizeUninit(logits.Value.R, logits.Value.C) // CrossEntropy sets every element
	} else {
		tp = t.tapes[w]
		if wg != nil {
			wg.count.Captures++
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
	// Under OverlapGrads an eager or capturing backward reports when each
	// parameter bucket is final, so the orchestrator can gate that bucket's
	// AllReduce there; a replay takes its gates from the schedule instead.
	var watch []*autograd.Var
	var onReady func(int)
	if t.Opts.OverlapGrads && g == nil {
		watch, onReady = t.watchBuckets(w, mdl.Params())
	}
	tp.BackwardHooked(logits, grad, watch, onReady)
	switch {
	case g != nil:
		t.scheduled(w, dev, g)
	case wg != nil:
		wg.graph = &stepGraph{
			tape:      tp,
			logits:    logits,
			grad:      grad,
			paramVars: mdl.Params().BoundVars(nil),
		}
	}
	return res
}

// scheduled list-schedules the DAG worker w's recorder took over a replayed
// step onto dev's compute and copy streams and issues its charges at their
// scheduled positions. Under OverlapGrads bucket b's AllReduce gate is the
// scheduled end of its last gradient-producing node (the eager backward's
// clock-read hooks would panic on a recording device). The graph bracket
// stays open: the charges were priced inside it, and RunEpoch closes it
// after the optimizer, so loss, gradient sync and optimizer replay inside
// the step's one graph launch.
func (t *Trainer) scheduled(w int, dev *sim.Device, g *stepGraph) {
	rec := t.gs[w].rec
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
