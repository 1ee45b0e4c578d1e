// Package sched is the whole-step scheduler: it turns one captured
// training step (a kept internal/autograd tape, DESIGN.md §9) into an
// explicit dependency DAG and re-places the step's device charges onto the
// simulated GPU's two streams by list scheduling, so independent kernels —
// a Linear layer's dX and dW backward GEMMs, sibling attention heads — run
// concurrently the way a CUDA Graph with multi-stream capture would.
//
// The substrate is record-and-schedule replay: a replay's host math follows
// the tape's dependencies on up to tensor.Workers() goroutines, with every
// float sum and random draw in its serial order (losses, gradients and model
// state stay bit-identical to eager execution), while its charges, observer
// calls and hooks keep record order on the device's goroutine; only the
// *virtual-time placement* of the device charges is decided by the
// scheduler. The device records the replay's charges into the Recorder's one
// flat list (sim.Device.Record) instead of advancing its clocks; the
// Recorder observes the replay, in record order, through
// autograd.ReplayObserver to open nodes — each owning the stretch of the
// list recorded while it was current — and reads each node's label and
// producer/consumer edges off the tape's records (value tensors keyed by
// buffer identity, gradients keyed by their Var), then schedules the DAG
// and issues each node's charges at its scheduled position.
package sched

import (
	"fmt"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Node is one schedulable unit of a captured step: a record's forward, its
// backward, one backward charge of its Cost, the loss, or the root
// graph-launch node (ID 1). Deps point at lower-ID nodes (record order is
// topological).
type Node struct {
	ID    int // 1-based; 0 is never a valid node
	Label string
	Deps  []int
	// Lo and Hi bound the node's charges in Recorder.Charges: [Lo, Hi).
	Lo, Hi int
	Dur    float64 // sum of charge durations

	// Filled by Schedule.
	Copy       bool // placed on the copy stream (else compute)
	Start, End float64
}

// Recorder builds and schedules the DAG for one replayed step. It is owned
// by one worker goroutine, like the device and tape it observes, and is
// reused across iterations via Reset.
type Recorder struct {
	// Charges is the list the device records the step into
	// (sim.Device.Record), in record order; each node owns the stretch
	// recorded while it was the latest opened. A record's forward Cost
	// charge lands on the record's node, since it runs while that is
	// current.
	Charges []sim.Charge
	nodes   []Node

	// Last-writer maps for dependency recovery. Value tensors are
	// pointer-stable across replays of a kept tape; gradients are keyed
	// by Var because their tensors allocate lazily.
	valWriter  map[*tensor.Dense]int
	gradWriter map[*autograd.Var]int

	// Schedule results and scratch, reused across iterations.
	makespan float64
	serial   bool // fell back to serial order (schedule was no better)
	prio     []float64
	est      []float64
	rem      []int
	succs    [][]int
	order    []int // node indices in placement order
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		valWriter:  make(map[*tensor.Dense]int),
		gradWriter: make(map[*autograd.Var]int),
	}
}

// Reset clears the DAG and the charge list for the next step and opens the
// root graph-launch node (ID 1): charges recorded before the first observed
// op — the GraphLaunch of sim.BeginGraphReplay — attach there, and every
// later node implicitly starts after it.
func (r *Recorder) Reset() {
	for i := range r.nodes {
		r.nodes[i].Deps = r.nodes[i].Deps[:0]
	}
	r.nodes = r.nodes[:0]
	r.Charges = r.Charges[:0]
	clear(r.valWriter)
	clear(r.gradWriter)
	r.makespan, r.serial = 0, false
	r.open("launch")
}

// open closes the current node's stretch of the charge list, appends a fresh
// node whose stretch starts there, and returns it. Every node but the root
// depends on the root.
func (r *Recorder) open(label string) *Node {
	r.close()
	n := len(r.nodes)
	if n < cap(r.nodes) {
		r.nodes = r.nodes[:n+1]
	} else {
		r.nodes = append(r.nodes, Node{})
	}
	nd := &r.nodes[n]
	nd.ID, nd.Label = n+1, label
	nd.Deps = nd.Deps[:0]
	nd.Lo, nd.Hi = len(r.Charges), len(r.Charges)
	nd.Dur, nd.Start, nd.End, nd.Copy = 0, 0, 0, false
	if nd.ID != 1 {
		nd.Deps = append(nd.Deps, 1)
	}
	return nd
}

// close ends the last node's stretch at the end of the charge list and sums
// its durations in record order.
func (r *Recorder) close() {
	if len(r.nodes) == 0 {
		return
	}
	nd := &r.nodes[len(r.nodes)-1]
	nd.Hi = len(r.Charges)
	nd.Dur = 0
	for _, c := range r.Charges[nd.Lo:nd.Hi] {
		nd.Dur += c.Dur
	}
}

// dep adds an edge nd -> id (nd starts after id ends), deduplicated.
func (r *Recorder) dep(nd *Node, id int) {
	for _, d := range nd.Deps {
		if d == id {
			return
		}
	}
	nd.Deps = append(nd.Deps, id)
}

// ForwardNode implements autograd.ReplayObserver for a record's forward:
// RAW edges from the writers of its inputs' values, WAW edges from (and
// then to) the writers of its output and auxiliary buffers.
func (r *Recorder) ForwardNode(rec *autograd.Record) {
	nd := r.open(rec.Kernel.Label())
	r.readInputs(nd, rec)
	for _, t := range [3]*tensor.Dense{rec.Out.Value, rec.Aux[0], rec.Aux[1]} {
		if t != nil {
			r.read(nd, t)
			r.valWriter[t] = nd.ID
		}
	}
}

// read adds an edge to nd from the last writer of value tensor t.
func (r *Recorder) read(nd *Node, t *tensor.Dense) {
	if w, ok := r.valWriter[t]; ok {
		r.dep(nd, w)
	}
}

// readGrad adds an edge to nd from the last producer of v's gradient.
func (r *Recorder) readGrad(nd *Node, v *autograd.Var) {
	if w, ok := r.gradWriter[v]; ok {
		r.dep(nd, w)
	}
}

// readInputs adds edges to nd from the writers of rec's input values.
func (r *Recorder) readInputs(nd *Node, rec *autograd.Record) {
	for _, in := range rec.In {
		if in != nil {
			r.read(nd, in.Value)
		}
	}
}

// readOp adds the edges every backward node of rec has: from the producer
// of its output's gradient and the writers of its output and input values.
func (r *Recorder) readOp(nd *Node, rec *autograd.Record) {
	r.readGrad(nd, rec.Out)
	r.read(nd, rec.Out.Value)
	r.readInputs(nd, rec)
}

// BackwardNode implements autograd.ReplayObserver for a record's backward:
// it reads its output's gradient and the forward values of the output and
// its inputs, and accumulates into each needs-grad input's gradient. It is
// opened before the backward runs because custom ops (spops) charge their
// backward kernels inline within it.
func (r *Recorder) BackwardNode(rec *autograd.Record) {
	nd := r.open("bwd")
	r.readOp(nd, rec)
	for _, in := range rec.In {
		if in != nil && in.NeedsGrad() {
			r.readGrad(nd, in)
			r.gradWriter[in] = nd.ID
		}
	}
}

// HookNode implements autograd.ReplayObserver for a backward charge of a
// record's Cost: a node producing input i's gradient from the output's.
// Splitting these off the backward spine is what lets a Linear layer's dW
// GEMM schedule concurrently with the dX chain below it.
func (r *Recorder) HookNode(rec *autograd.Record, i int) {
	nd := r.open("hook")
	r.readOp(nd, rec)
	target := rec.In[i]
	r.readGrad(nd, target)
	r.gradWriter[target] = nd.ID
}

// LossNode marks the loss/seed region between forward and backward replay:
// it reads the logits value and produces the logits gradient, joining the
// forward frontier to the backward spine. The loss math itself is host
// work and carries no device charges.
func (r *Recorder) LossNode(logits *autograd.Var) {
	nd := r.open("loss")
	r.read(nd, logits.Value)
	r.gradWriter[logits] = nd.ID
}

// GradReadyTime returns the scheduled end of the last node producing v's
// gradient, or def if no node wrote it. The overlap engine derives bucket
// AllReduce gates from this instead of the eager path's replay-time clock
// reads (which are meaningless while charges are being recorded).
func (r *Recorder) GradReadyTime(v *autograd.Var, def float64) float64 {
	if id, ok := r.gradWriter[v]; ok {
		return r.nodes[id-1].End
	}
	return def
}

// Schedule places the recorded nodes onto the two streams by list
// scheduling and returns the makespan. computeFree/copyFree are the
// streams' current clocks. Priority is critical-path length; the highest
// priority ready node goes to whichever stream finishes it earlier (ties
// to compute), which keeps the dependence spine on the compute stream and
// shunts off-spine work (dW GEMMs, sibling branches) to the copy stream
// when it is idle. If the resulting makespan would exceed the plain serial
// order — possible, greedy list scheduling is not optimal — the schedule
// falls back to serial so a scheduled step is never slower than a captured
// one. Deterministic: same DAG and clocks, same schedule, on any worker
// count.
func (r *Recorder) Schedule(computeFree, copyFree float64) float64 {
	r.close()
	n := len(r.nodes)
	if n == 0 {
		r.makespan = computeFree
		return r.makespan
	}
	r.prio = grow(r.prio, n)
	r.est = grow(r.est, n)
	r.rem = grow(r.rem, n)
	r.order = r.order[:0]
	for len(r.succs) < n {
		r.succs = append(r.succs, nil)
	}
	succs := r.succs[:n]
	for i := range succs {
		succs[i] = succs[i][:0]
	}
	// Critical-path priority: record order is topological (deps point to
	// lower IDs), so one descending sweep finalizes each node's priority
	// before relaxing its deps.
	for i := 0; i < n; i++ {
		r.prio[i] = r.nodes[i].Dur
		r.est[i] = 0
		r.rem[i] = len(r.nodes[i].Deps)
		for _, d := range r.nodes[i].Deps {
			succs[d-1] = append(succs[d-1], i)
		}
	}
	for j := n - 1; j >= 1; j-- {
		pj := r.prio[j]
		for _, dep := range r.nodes[j].Deps {
			d := dep - 1
			if c := r.nodes[d].Dur + pj; c > r.prio[d] {
				r.prio[d] = c
			}
		}
	}
	compute, copyT := computeFree, copyFree
	total := 0.0
	for i := range r.nodes {
		total += r.nodes[i].Dur
	}
	placed := 0
	makespan := computeFree
	for placed < n {
		best := -1
		for i := 0; i < n; i++ {
			if r.rem[i] == 0 {
				if best == -1 || r.prio[i] > r.prio[best] {
					best = i
				}
			}
		}
		nd := &r.nodes[best]
		s := r.est[best]
		startC := max(compute, s)
		startK := max(copyT, s)
		// The root stays on compute (a graph launch is host dispatch on the
		// compute stream); everything else picks the earlier finisher.
		if best == 0 || startC <= startK {
			nd.Copy, nd.Start = false, startC
			compute = startC + nd.Dur
			nd.End = compute
		} else {
			nd.Copy, nd.Start = true, startK
			copyT = startK + nd.Dur
			nd.End = copyT
		}
		if nd.End > makespan {
			makespan = nd.End
		}
		r.rem[best] = -1 // placed: never ready again
		r.order = append(r.order, best)
		for _, sj := range succs[best] {
			r.rem[sj]--
			if nd.End > r.est[sj] {
				r.est[sj] = nd.End
			}
		}
		placed++
	}
	serialEnd := computeFree + total
	if makespan > serialEnd {
		// Greedy placement lost to the serial order; redo everything on the
		// compute stream in record order so scheduled <= captured holds.
		r.serial = true
		r.order = r.order[:0]
		t := computeFree
		for i := range r.nodes {
			nd := &r.nodes[i]
			nd.Copy, nd.Start = false, t
			t += nd.Dur
			nd.End = t
			r.order = append(r.order, i)
		}
		makespan = t
	}
	r.makespan = makespan
	return makespan
}

// Apply issues the recorded charges on dev at their scheduled positions:
// per node, switch to its stream, idle up to its start, and issue its
// charges in record order — so clocks, Stats and trace advance exactly
// once, at placement. Afterwards the compute stream joins the
// makespan (the step is not done until every node is), annotated trace
// intervals carry the node IDs, and — when tracing — each node's reserved
// span is emitted on the scheduler decision lane.
func (r *Recorder) Apply(dev *sim.Device) {
	prev := dev.CurrentStream()
	for _, i := range r.order {
		nd := &r.nodes[i]
		k := sim.StreamCompute
		if nd.Copy {
			k = sim.StreamCopy
		}
		dev.SetStream(k)
		dev.IdleUntil(nd.Start)
		if dev.Tracing && nd.Dur > 0 {
			lane := "compute"
			if nd.Copy {
				lane = "copy"
			}
			dev.RecordDecision(nd.Start, nd.End, fmt.Sprintf("%s@%s", nd.Label, lane), nd.ID)
		}
		dev.Issue(r.Charges[nd.Lo:nd.Hi], nd.ID)
	}
	dev.SetStream(sim.StreamCompute)
	dev.IdleUntil(r.makespan)
	dev.SetStream(prev)
}

func grow[T float64 | int](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
