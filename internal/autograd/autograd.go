// Package autograd implements tape-based reverse-mode automatic
// differentiation over dense float32 matrices. It is the stand-in for the
// PyTorch autograd engine the real WholeGraph builds on (paper §III-A):
// layers record operations on a tape during the forward pass and Backward
// walks them in reverse, accumulating gradients.
//
// An op on the tape is data: a Record holds a Kernel — an op type with a
// Forward and a Backward method — and the op's operands. Recording an op runs
// its forward once; Backward calls the backward of every record a gradient
// reached, in reverse; and a tape that is kept instead of Reset is a captured
// training step: Replay runs the same forwards again, into the same buffers,
// reading shapes and values live. Graph-specific sparse operations (g-SpMM,
// g-SDDMM, segment softmax) are kernels defined in their own package, as
// custom CUDA ops plug into torch.autograd.Function.
//
// A result needs a gradient when one of its op's inputs does. A tape reset
// with ResetNoGrad binds parameters as constants and keeps no record, so the
// forward that follows only computes — the counterpart of PyTorch's no_grad
// for evaluation and serving: a warm arena-backed no-grad forward allocates
// nothing.
package autograd

import (
	"fmt"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Var is a node in the computation graph: a value and, after Backward, its
// gradient.
type Var struct {
	Value *tensor.Dense
	// Grad is allocated lazily on first accumulation; nil means "no
	// gradient flowed here" (or a constant).
	Grad *tensor.Dense

	tape     *Tape
	needGrad bool
}

// NeedsGrad reports whether gradients flow to this variable.
func (v *Var) NeedsGrad() bool { return v.needGrad }

// Tape returns the tape this variable was recorded on; custom operations
// defined outside this package (e.g. the sparse ops in internal/spops)
// record themselves on it with Tape.Record.
func (v *Var) Tape() *Tape { return v.tape }

// AccumGrad adds g into v's gradient, allocating it on first use. It is a
// no-op for variables that do not need gradients.
func (v *Var) AccumGrad(g *tensor.Dense) {
	if !v.needGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = v.tape.NewTensor(v.Value.R, v.Value.C)
	}
	tensor.AccumInto(v.Grad, g)
}

// Kernel is an op type. Forward computes the record's output from its
// operands — reading every shape and value live, so that a replay tracks the
// batch in front of it — and Backward propagates r.Out.Grad into the inputs'
// gradients (through AccumGrad). Label names the op in the whole-step
// scheduler's DAG. Kernels keep no per-call state: a zero-size type or a
// pointer that outlives the tape, so a record holds one without allocating.
type Kernel interface {
	Label() string
	Forward(r *Record)
	Backward(r *Record)
}

// Cost prices the device work of an op beside its kernel's own charges
// (Tape.Charge): ChargeForward rides the op's forward, and
// ChargeBackward(r, i) charges the kernel that produces input i's gradient.
// Each backward charge runs right after the op's backward, as its own node
// in the whole-step scheduler's DAG, so independent gradient kernels (a
// Linear layer's dX and dW GEMMs) can run concurrently.
type Cost interface {
	ChargeForward(r *Record)
	ChargeBackward(r *Record, i int)
}

// Record is one op on a tape: a kernel and its operands. An op has at most
// two inputs. A record without an output is a rider: its forward only
// re-derives structure a later op reads, it takes no part in the backward
// pass and opens no scheduler node.
type Record struct {
	Kernel Kernel
	Out    *Var
	In     [2]*Var
	// Aux are further buffers the forward writes beside the output
	// (dropout's mask, SpMM's norms and messages); Buffer allocates them.
	Aux [2]*tensor.Dense
	// Dev is the device the kernel and the Cost charge; nil charges
	// nothing.
	Dev  *sim.Device
	Cost Cost
	// Scalar and structural operands: a factor or probability, an index
	// list, and a pointer the kernel reads live (a row count, a random
	// stream, a sampled sub-graph).
	F   float32
	Idx []int
	Arg any
}

// Output returns the record's output value reshaped to rows x cols, zeroed
// when zero is set (else what it held stays, for a kernel that sets every
// element). The first forward allocates it from the tape; a replay reshapes
// the same buffer.
func (r *Record) Output(rows, cols int, zero bool) *tensor.Dense {
	return r.Out.tape.reuse(&r.Out.Value, rows, cols, zero)
}

// Buffer is Output for the record's i-th auxiliary buffer.
func (r *Record) Buffer(i, rows, cols int, zero bool) *tensor.Dense {
	return r.Out.tape.reuse(&r.Aux[i], rows, cols, zero)
}

// OutputView makes the record's output an [rows x cols] header over v (not
// copied). An arena tape pools the header; the backing memory stays
// whoever's it was.
func (r *Record) OutputView(rows, cols int, v []float32) {
	switch t, d := r.Out.tape, r.Out.Value; {
	case d != nil:
		d.R, d.C, d.V = rows, cols, v
	case t.arena == nil:
		r.Out.Value = tensor.FromSlice(rows, cols, v)
	default:
		r.Out.Value = t.arena.View(rows, cols, v)
		t.views = append(t.views, r.Out.Value)
	}
}

// ReplayObserver is notified, during Replay and the backward pass that
// follows it, of each step that becomes a node in a whole-step dependency
// DAG, just before the step's math (and therefore its device charges) runs:
// ForwardNode for each record with an output, BackwardNode for each record
// whose backward runs, HookNode for each backward charge of its Cost.
// Implemented by internal/sched.
type ReplayObserver interface {
	ForwardNode(r *Record)
	BackwardNode(r *Record)
	HookNode(r *Record, i int)
}

// Tape records operations in execution order for reverse-mode replay.
//
// A tape may be backed by a tensor.Arena (NewTapeArena): every tensor and
// view header it hands out is then pooled and recycled by Reset, together
// with the Var nodes themselves, making the second-and-later training
// iterations allocation-free. A tape (and its arena) is owned by one worker
// goroutine, like the device it trains on.
type Tape struct {
	ops []Record

	arena *tensor.Arena // nil: plain allocation, nothing recycled
	vars  []*Var        // every Var handed out since the last Reset
	free  []*Var        // recycled Var nodes
	owned []*tensor.Dense
	views []*tensor.Dense
	// grads is where the tensors of the backward passes since the last
	// Reset or Replay start in owned (-1: none ran): Replay hands them back
	// to the arena, so a replayed backward reuses them.
	grads int

	// noGrad is set by ResetNoGrad: Param binds constants and Record keeps
	// only the latest op, in last, until the next Reset; the backward entry
	// points refuse to run.
	noGrad bool
	last   Record

	// BackwardHooked scratch, reused across calls.
	watchMin []int

	// obs, when non-nil, is notified of each replayed step's dependency
	// metadata; set by the whole-step scheduler for the duration of a
	// scheduled replay.
	obs ReplayObserver
}

// SetReplayObserver installs (or, with nil, removes) the observer for
// subsequent replays on this tape.
func (t *Tape) SetReplayObserver(o ReplayObserver) { t.obs = o }

// NewTape returns an empty tape. A fresh tape is typically created per
// training iteration; steady-state loops instead keep one arena-backed tape
// per worker (NewTapeArena) and Reset it between iterations.
func NewTape() *Tape { return &Tape{grads: -1} }

// NewTapeArena returns a tape whose scratch tensors are pooled in a: Reset
// returns them (and the tape's Var nodes) to the pool for the next
// iteration. The arena must be owned by the same goroutine as the tape.
func NewTapeArena(a *tensor.Arena) *Tape { return &Tape{arena: a, grads: -1} }

// Arena returns the backing arena, or nil for a plain tape.
func (t *Tape) Arena() *tensor.Arena { return t.arena }

// Len returns the number of recorded operations.
func (t *Tape) Len() int { return len(t.ops) }

// NewTensor returns a zeroed [r x c] tensor owned by the tape: with an
// arena it is pooled memory that Reset reclaims, without one it is a plain
// allocation. All op outputs and gradients are allocated through it.
func (t *Tape) NewTensor(r, c int) *tensor.Dense { return t.newTensor(r, c, true) }

// newTensor is NewTensor, skipping the zeroing of a recycled arena slab
// unless zero is set: for a tensor whose kernel sets every element.
func (t *Tape) newTensor(r, c int, zero bool) *tensor.Dense {
	if t.arena == nil {
		return tensor.New(r, c)
	}
	var d *tensor.Dense
	if zero {
		d = t.arena.Get(r, c)
	} else {
		d = t.arena.GetUninit(r, c)
	}
	t.owned = append(t.owned, d)
	return d
}

// reuse reshapes *d to r x c, allocating it from the tape the first time.
func (t *Tape) reuse(d **tensor.Dense, r, c int, zero bool) *tensor.Dense {
	switch {
	case *d == nil:
		*d = t.newTensor(r, c, zero)
	case zero:
		(*d).Resize(r, c)
	default:
		(*d).ResizeUninit(r, c)
	}
	return *d
}

// Reset clears the tape for the next iteration, recycling every Var node
// and every arena-backed tensor handed out since the previous Reset. All
// Vars and tape-owned tensors from before the Reset are invalidated — the
// caller must not hold on to logits, gradients or views across it. It also
// leaves no-grad mode: parameters bound after it need gradients.
func (t *Tape) Reset() {
	t.noGrad, t.last, t.grads = false, Record{}, -1
	clear(t.ops)
	t.ops = t.ops[:0]
	for _, v := range t.vars {
		v.Value, v.Grad, v.needGrad = nil, nil, false
		t.free = append(t.free, v)
	}
	clear(t.vars)
	t.vars = t.vars[:0]
	t.release(0)
	if t.arena != nil {
		for i, d := range t.views {
			t.arena.PutHeader(d)
			t.views[i] = nil
		}
		t.views = t.views[:0]
	}
}

// release returns the owned tensors from index i on to the arena.
func (t *Tape) release(i int) {
	for j, d := range t.owned[i:] {
		t.arena.Put(d)
		t.owned[i+j] = nil
	}
	t.owned = t.owned[:i]
}

// ResetNoGrad is Reset for a forward that no backward will follow
// (evaluation, inference, serving). Until the next Reset, Param binds its
// tensor as a constant and the tape keeps no record, so no op of the forward
// needs a gradient: values and device charges are those of a recording
// forward, but nothing is kept for a backward pass or a replay. Backward,
// BackwardHooked and Replay panic in this mode.
func (t *Tape) ResetNoGrad() {
	t.Reset()
	t.noGrad = true
}

// mustRecord panics when the tape is in no-grad mode: op names the entry
// point that was called.
func (t *Tape) mustRecord(op string) {
	if t.noGrad {
		panic("autograd: " + op + " on a tape in no-grad mode (ResetNoGrad): its parameters are constants and nothing was recorded")
	}
}

// newVar pops a recycled Var node or allocates one; every Var the tape
// hands out is tracked for recycling at Reset.
func (t *Tape) newVar() *Var {
	var v *Var
	if n := len(t.free); n > 0 {
		v = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		v = &Var{}
	}
	v.tape = t
	t.vars = append(t.vars, v)
	return v
}

// Param wraps a trainable parameter (gradients accumulate into it). In
// no-grad mode (ResetNoGrad) it wraps a constant instead.
func (t *Tape) Param(v *tensor.Dense) *Var {
	p := t.newVar()
	p.Value, p.needGrad = v, !t.noGrad
	return p
}

// Const wraps a constant input (no gradient).
func (t *Tape) Const(v *tensor.Dense) *Var {
	p := t.newVar()
	p.Value, p.needGrad = v, false
	return p
}

// Record appends the op r to the tape, runs its forward once and returns its
// output, which needs a gradient when an input does. In no-grad mode the
// record is not kept past the next op.
func (t *Tape) Record(r Record) *Var {
	need := false
	for _, in := range r.In {
		if in == nil {
			continue
		}
		if in.tape != t {
			panic("autograd: input from a different tape")
		}
		need = need || in.needGrad
	}
	r.Out = t.newVar()
	r.Out.needGrad = need
	t.forward(t.push(r))
	return r.Out
}

// RecordRider appends the rider r (a record without inputs or output): its
// forward runs now and again on every replay, in record order, but it has no
// backward and no scheduler node.
func (t *Tape) RecordRider(r Record) {
	t.forward(t.push(r))
}

// push stores r on the tape (in no-grad mode, as the latest op only) and
// returns the stored record.
func (t *Tape) push(r Record) *Record {
	if t.noGrad {
		t.last = r
		return &t.last
	}
	t.ops = append(t.ops, r)
	return &t.ops[len(t.ops)-1]
}

// forward runs r's kernel forward and, with a device, its Cost's forward
// charge.
func (t *Tape) forward(r *Record) {
	r.Kernel.Forward(r)
	if r.Cost != nil {
		r.Cost.ChargeForward(r)
	}
}

// Charge prices the op that produced v — the last one recorded — with c on
// dev: its forward charge is made now and on every replay, and its backward
// charges when the backward pass reaches it. A nil dev prices nothing.
func (t *Tape) Charge(v *Var, dev *sim.Device, c Cost) {
	if dev == nil {
		return
	}
	r := &t.last
	if !t.noGrad {
		r = &t.ops[len(t.ops)-1]
	}
	if r.Out != v {
		panic("autograd: Charge does not follow the op it prices")
	}
	r.Dev, r.Cost = dev, c
	c.ChargeForward(r)
}

// Replay runs the tape's forward again: every record's forward in record
// order, into the buffers it wrote when it was recorded, against the current
// parameter and input values and shapes. Gradients are cleared and the
// tensors of the previous backward pass go back to the arena, so the
// Backward that follows reuses them: a warm replay of a kept arena tape,
// forward and backward, allocates nothing. Callers must rebind any buffer
// that moved (parameters, batch inputs) before calling.
func (t *Tape) Replay() {
	t.mustRecord("Replay")
	if t.grads >= 0 {
		t.release(t.grads)
		t.grads = -1
	}
	for _, v := range t.vars {
		v.Grad = nil
	}
	for i := range t.ops {
		r := &t.ops[i]
		if t.obs != nil && r.Out != nil {
			t.obs.ForwardNode(r)
		}
		t.forward(r)
	}
}

// Backward seeds loss.Grad with seed (same shape as loss.Value) and runs the
// tape in reverse, accumulating gradients into all parameters.
func (t *Tape) Backward(loss *Var, seed *tensor.Dense) {
	t.mustRecord("Backward")
	t.backward(loss, seed, nil, nil)
}

// BackwardHooked runs Backward and additionally reports, for each variable
// in watch (typically leaf parameters), the moment its gradient becomes
// final: onReady(i) is called for watch[i] right after the lowest-indexed
// record consuming it has run its backward — no later record can touch its
// Grad. Watched variables never consumed by the tape are reported after the
// pass. The gradient-overlap trainer uses this to hand parameter buckets to
// the collective engine while the rest of the backward pass still runs.
func (t *Tape) BackwardHooked(loss *Var, seed *tensor.Dense, watch []*Var, onReady func(int)) {
	t.mustRecord("BackwardHooked")
	t.backward(loss, seed, watch, onReady)
}

func (t *Tape) backward(loss *Var, seed *tensor.Dense, watch []*Var, onReady func(int)) {
	if loss.tape != t {
		panic("autograd: loss from a different tape")
	}
	if !loss.Value.SameShape(seed) {
		panic(fmt.Sprintf("autograd: seed shape %dx%d for loss %dx%d",
			seed.R, seed.C, loss.Value.R, loss.Value.C))
	}
	// The first (lowest-index) record consuming each watched var: once it
	// has run, nothing before it in the reverse sweep remains.
	watchMin := t.watchMin[:0]
	for _, w := range watch {
		first := -1
		for i := 0; i < len(t.ops) && first < 0; i++ {
			if r := &t.ops[i]; r.Out != nil && r.Out.needGrad && (r.In[0] == w || r.In[1] == w) {
				first = i
			}
		}
		watchMin = append(watchMin, first)
	}
	if t.grads < 0 {
		t.grads = len(t.owned)
	}
	loss.AccumGrad(seed)
	for i := len(t.ops) - 1; i >= 0; i-- {
		r := &t.ops[i]
		if v := r.Out; v != nil && v.needGrad && v.Grad != nil {
			if t.obs != nil {
				t.obs.BackwardNode(r)
			}
			r.Kernel.Backward(r)
			for j := 0; r.Cost != nil && j < len(r.In) && r.In[j] != nil; j++ {
				if t.obs != nil {
					t.obs.HookNode(r, j)
				}
				r.Cost.ChargeBackward(r, j)
			}
		}
		for wi, mi := range watchMin {
			if mi == i {
				onReady(wi)
			}
		}
	}
	for wi, mi := range watchMin {
		if mi == -1 {
			onReady(wi)
		}
	}
	t.watchMin = watchMin
}
