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

// Step capture/replay (Options.CaptureGraph): the training loop re-runs an
// identical op sequence every iteration, yet the eager path re-walks the
// tape, re-dispatches every op and pays KernelLaunch per kernel — the host
// overhead CUDA Graphs eliminate. Here the first iteration on each batch
// slot runs eagerly on a plain capture tape (autograd.BeginCapture),
// recording the forward program and the backward gradient buffers; later
// iterations on the same slot replay the frozen tape: no tape rebuild, no
// per-op closure allocation, only parameter/gradient buffer rebinding, and
// the device charges one GraphLaunch instead of one KernelLaunch per
// kernel (sim.BeginGraphReplay). Loss/accuracy, gradient averaging and the
// optimizer stay live outside the captured program, so losses, gradients
// and model state are bit-identical to eager execution.
//
// Captures tolerate varying row counts (every replay closure reads shapes
// from the live block/feature buffers); they are keyed by batch identity
// and invalidated when the batch's structure moves (feature tensor or
// block pointers replaced), falling back to an eager re-capture. Loaders
// that never reuse batch objects (the host-memory baselines) blow through
// maxGraphsPerWorker and drop to permanent eager fallback.

// maxGraphsPerWorker bounds how many captured step graphs a worker keeps.
// The WholeGraph loader's two-slot ring needs two; anything past this means
// the loader does not reuse batch objects and capture cannot pay off.
const maxGraphsPerWorker = 4

// stepResult is one worker's loss/accuracy from a training step.
type stepResult struct {
	loss, acc float64
}

// stepGraph is one captured training step for one batch slot.
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

// matches reports whether the batch still has the structure g captured.
func (g *stepGraph) matches(b *gnn.Batch) bool {
	if b.Feat != g.feat || len(b.Blocks) != len(g.blocks) {
		return false
	}
	for i, blk := range b.Blocks {
		if blk != g.blocks[i] {
			return false
		}
	}
	return true
}

// graphState is the per-trainer capture machinery. Every slice is indexed
// by real worker, and each worker touches only its own entries inside the
// parallel region, mirroring device ownership.
type graphState struct {
	graphs   []map[*gnn.Batch]*stepGraph
	fallback []bool // worker exceeded maxGraphsPerWorker: stay eager

	// sch is each worker's whole-step scheduler recorder (Options.Schedule);
	// schedOpen marks a scheduled graph bracket held open across the
	// gradient sync so the optimizer's kernels land inside it.
	sch       []*sched.Recorder
	schedOpen []bool

	captures      []int64
	replays       []int64
	invalidations []int64
	fallbacks     []int64
	scheduled     []int64
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
	if t.gs == nil {
		return c
	}
	for w := range t.gs.graphs {
		c.Captures += t.gs.captures[w]
		c.Replays += t.gs.replays[w]
		c.Invalidations += t.gs.invalidations[w]
		c.Fallbacks += t.gs.fallbacks[w]
		c.Scheduled += t.gs.scheduled[w]
	}
	return c
}

func (t *Trainer) ensureGraphState() {
	if t.gs != nil {
		return
	}
	nw := len(t.Models)
	gs := &graphState{
		graphs:        make([]map[*gnn.Batch]*stepGraph, nw),
		fallback:      make([]bool, nw),
		schedOpen:     make([]bool, nw),
		captures:      make([]int64, nw),
		replays:       make([]int64, nw),
		invalidations: make([]int64, nw),
		fallbacks:     make([]int64, nw),
		scheduled:     make([]int64, nw),
	}
	for w := range gs.graphs {
		gs.graphs[w] = make(map[*gnn.Batch]*stepGraph, maxGraphsPerWorker)
	}
	if t.Opts.Schedule {
		gs.sch = make([]*sched.Recorder, nw)
		for w := range gs.sch {
			gs.sch[w] = sched.NewRecorder()
		}
	}
	t.gs = gs
}

// resetOverlapWatch refills worker w's overlap watch list from vars and
// re-arms the per-bucket countdowns for one backward pass.
func (t *Trainer) resetOverlapWatch(w int, vars []*autograd.Var) []*autograd.Var {
	s := t.ov
	wl := append(s.watch[w][:0], vars...)
	s.watch[w] = wl
	for b := range s.buckets {
		s.left[w][b] = len(s.buckets[b])
		s.readyAt[w][b] = 0
	}
	return wl
}

// eagerStep is the classic training step — forward, loss and accuracy,
// backward, every kernel launched and priced on its own — and, with capture
// set, also the iteration that freezes the step graph for b. The two differ
// only in the tape: eager execution resets and reuses the worker's arena tape
// (the loss gradient comes from its arena), a capture runs on a fresh plain
// tape with recording on (the loss gradient is a plain tensor the graph
// keeps). Runs inside the parallel region.
func (t *Trainer) eagerStep(w int, mdl gnn.Model, dev *sim.Device, b *gnn.Batch, overlap, capture bool) stepResult {
	var tp *autograd.Tape
	if capture {
		tp = autograd.NewTape()
		tp.BeginCapture()
	} else {
		tp = t.tapes[w]
		tp.Reset()
	}
	logits := mdl.Forward(dev, tp, b, true)
	var grad *tensor.Dense
	if capture {
		grad = tensor.New(logits.Value.R, logits.Value.C)
	} else {
		grad = tp.NewTensor(logits.Value.R, logits.Value.C)
	}
	res := stepResult{
		loss: tensor.CrossEntropy(logits.Value, b.Labels, grad),
		acc:  tensor.Accuracy(logits.Value, b.Labels),
	}
	if overlap {
		// Track when backward finalizes each parameter bucket so the
		// orchestrator can gate that bucket's AllReduce there.
		s := t.ov
		wl := t.resetOverlapWatch(w, nil)
		for _, p := range mdl.Params().Params() {
			wl = append(wl, p.Var())
		}
		s.watch[w] = wl
		tp.BackwardHooked(logits, grad, wl, s.readyFns[w])
	} else {
		tp.Backward(logits, grad)
	}
	if capture {
		tp.EndCapture()
		t.gs.graphs[w][b] = &stepGraph{
			tape:      tp,
			logits:    logits,
			grad:      grad,
			paramVars: mdl.Params().BoundVars(nil),
			feat:      b.Feat,
			blocks:    append([]*spops.SubCSR(nil), b.Blocks...),
		}
		t.gs.captures[w]++
	}
	return res
}

// graphStep replays the captured graph for b, capturing (or invalidating
// and re-capturing) as needed. Runs inside the parallel region.
func (t *Trainer) graphStep(w int, mdl gnn.Model, dev *sim.Device, b *gnn.Batch, overlap bool) stepResult {
	gs := t.gs
	if g, ok := gs.graphs[w][b]; ok {
		if g.matches(b) {
			gs.replays[w]++
			return t.replayStep(w, mdl, dev, b, g, overlap)
		}
		// Structure moved under the same batch object: drop and re-capture.
		delete(gs.graphs[w], b)
		gs.invalidations[w]++
	}
	if len(gs.graphs[w]) >= maxGraphsPerWorker {
		// The loader is not reusing batch objects; capture cannot amortize.
		gs.fallback[w] = true
		gs.fallbacks[w]++
		return t.eagerStep(w, mdl, dev, b, overlap, false)
	}
	// One eager-priced iteration that freezes the step graph for b.
	return t.eagerStep(w, mdl, dev, b, overlap, true)
}

// replayStep re-executes a captured step: rebind the parameters to the
// capture tape, replay forward inside a graph-launch bracket, recompute
// loss/accuracy live (the loss layer is outside the graph, as its output
// feeds the host), and replay backward over the frozen tape. With
// Options.Schedule the replay routes through the whole-step scheduler
// instead.
func (t *Trainer) replayStep(w int, mdl gnn.Model, dev *sim.Device, b *gnn.Batch, g *stepGraph, overlap bool) stepResult {
	if t.Opts.Schedule {
		return t.scheduledStep(w, mdl, dev, b, g, overlap)
	}
	mdl.Params().RebindVars(g.paramVars)
	dev.BeginGraphReplay("step-graph")
	g.tape.ReplayForward()
	g.grad.ResizeUninit(g.logits.Value.R, g.logits.Value.C) // CrossEntropy sets every element
	res := stepResult{
		loss: tensor.CrossEntropy(g.logits.Value, b.Labels, g.grad),
		acc:  tensor.Accuracy(g.logits.Value, b.Labels),
	}
	if overlap {
		wl := t.resetOverlapWatch(w, g.paramVars)
		g.tape.ReplayBackward(g.logits, g.grad, wl, t.ov.readyFns[w])
	} else {
		g.tape.ReplayBackward(g.logits, g.grad, nil, nil)
	}
	dev.EndGraphReplay()
	return res
}

// scheduledStep is replayStep through the whole-step scheduler
// (Options.Schedule, DESIGN.md §13). The replay runs with a sched.Recorder
// attached to the device, so every charge routes to a DAG node instead of
// advancing the clocks, and the tape reports node boundaries and tensor
// reads/writes through the replay observer. Host math still runs in the
// captured order — losses, gradients and model state are bit-identical to
// eager and to plain replay — then the recorded DAG is list-scheduled onto
// the compute and copy streams and its charges applied at their scheduled
// positions. Under OverlapGrads the per-bucket AllReduce gates come from the
// scheduled end times of the bucket's gradient-producing nodes (the eager
// path's clock-read hooks are meaningless while charges are being
// recorded). The graph bracket opened here stays open across loss, gradient
// sync and the optimizer; RunEpoch closes it after the optimizer step so
// the whole training step replays as one graph launch.
func (t *Trainer) scheduledStep(w int, mdl gnn.Model, dev *sim.Device, b *gnn.Batch, g *stepGraph, overlap bool) stepResult {
	rec := t.gs.sch[w]
	rec.Reset()
	mdl.Params().RebindVars(g.paramVars)
	dev.AttachRecorder(rec)
	dev.BeginGraphReplay("step-graph")
	g.tape.SetReplayObserver(rec)
	g.tape.ReplayForward()
	rec.LossNode(g.logits)
	g.grad.ResizeUninit(g.logits.Value.R, g.logits.Value.C) // CrossEntropy sets every element
	res := stepResult{
		loss: tensor.CrossEntropy(g.logits.Value, b.Labels, g.grad),
		acc:  tensor.Accuracy(g.logits.Value, b.Labels),
	}
	g.tape.ReplayBackward(g.logits, g.grad, nil, nil)
	g.tape.SetReplayObserver(nil)
	dev.DetachRecorder()
	makespan := rec.Schedule(dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy))
	rec.Apply(dev)
	if overlap {
		// Bucket b is ready when its last gradient-producing node finishes in
		// the schedule; the watch machinery is bypassed (nil watch above).
		t.resetOverlapWatch(w, g.paramVars)
		s := t.ov
		for bkt := range s.buckets {
			mr := 0.0
			for _, pi := range s.buckets[bkt] {
				if rt := rec.GradReadyTime(g.paramVars[pi], makespan); rt > mr {
					mr = rt
				}
			}
			s.readyAt[w][bkt] = mr
		}
	}
	t.gs.scheduled[w]++
	t.gs.schedOpen[w] = true
	return res
}
