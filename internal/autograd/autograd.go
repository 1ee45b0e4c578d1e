// Package autograd implements tape-based reverse-mode automatic
// differentiation over dense float32 matrices. It is the stand-in for the
// PyTorch autograd engine the real WholeGraph builds on (paper §III-A):
// layers record operations on a tape during the forward pass and Backward
// replays them in reverse, accumulating gradients.
//
// The package is deliberately minimal and extensible: graph-specific sparse
// operations (g-SpMM, g-SDDMM, segment softmax) register themselves through
// Tape.Op with custom backward closures, exactly as custom CUDA ops plug
// into torch.autograd.Function.
//
// Only what a gradient can reach is recorded. Every op computes its output
// (and charges its forward kernels) unconditionally; it then checks its
// inputs, and when none of them needs a gradient it returns its output as a
// value-only Var (Tape.Const): no backward closure is built, no inputs are
// kept, and nothing lands on the tape. Otherwise Tape.Op records a node that
// holds the op's inputs inline (no op has more than two) and its backward
// closure. A tape reset with ResetNoGrad binds parameters as constants, so
// every op of the forward that follows takes the value-only path — the
// counterpart of PyTorch's no_grad for evaluation and serving: a warm
// arena-backed no-grad forward allocates nothing.
package autograd

import (
	"fmt"

	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
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
	// in[:nin] are the inputs of a recorded op, kept inline in the node.
	in  [2]*Var
	nin int
	// back propagates v.Grad into the inputs' Grad fields.
	back func(v *Var)
	// post hooks run right after back during replay (see OnBackwardFor).
	post []postHook
}

// postHook is one registered backward hook. Its target declares the hook's
// work as the production of target's gradient, which lets the whole-step
// scheduler give it its own DAG node (e.g. splitting a Linear layer's dX and
// dW GEMM charges into independently schedulable nodes).
type postHook struct {
	fn     func()
	target *Var
}

// OnBackwardFor registers fn to run immediately after this variable's
// backward closure executes during tape replay; fn's work produces target's
// gradient (reading v's). Hooks fire only if a gradient reached the variable
// (mirroring how its backward work only happens then); layers use this to
// charge backward kernel costs on the device at replay time rather than at
// forward-record time. The scheduler uses the declared target to recover a
// dependency edge and schedule the hook independently of its siblings.
// Hooks are discarded by Tape.Reset.
func (v *Var) OnBackwardFor(target *Var, fn func()) {
	v.post = append(v.post, postHook{fn: fn, target: target})
}

// Inputs returns the variables a recorded op was computed from (empty for
// leaves and value-only results). The returned slice aliases the node —
// callers must not mutate it.
func (v *Var) Inputs() []*Var { return v.in[:v.nin] }

// NeedsGrad reports whether gradients flow to this variable.
func (v *Var) NeedsGrad() bool { return v.needGrad }

// Tape returns the tape this variable was recorded on; custom operations
// defined outside this package (e.g. the sparse ops in internal/spops) use
// it to register themselves via Tape.Op.
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

// Tape records operations in execution order for reverse-mode replay.
//
// A tape may be backed by a tensor.Arena (NewTapeArena): every tensor it
// hands out through NewTensor/NewView is then pooled and recycled by Reset,
// together with the Var nodes themselves, making the second-and-later
// training iterations allocation-free. A tape (and its arena) is owned by one
// worker goroutine, like the device it trains on.
type Tape struct {
	nodes []*Var

	arena *tensor.Arena // nil: plain allocation, nothing recycled
	vars  []*Var        // every Var handed out since the last Reset
	free  []*Var        // recycled Var nodes
	owned []*tensor.Dense
	views []*tensor.Dense

	// noGrad is set by ResetNoGrad: Param binds constants until the next
	// Reset, and the backward entry points refuse to run.
	noGrad bool

	// BackwardHooked scratch, reused across calls.
	watchMin []int
	watchIdx map[*Var]int

	// Step capture/replay state (see BeginCapture). While capturing, op
	// constructors append replay closures to program and the backward pass
	// records every gradient tensor it allocates into bwdSeq; once EndCapture
	// has frozen the tape, its backward passes hand those buffers back in the
	// same order instead of allocating. inBackward is set during a backward
	// pass, the only time either happens.
	capturing, frozen bool
	inBackward        bool
	program           []progStep
	bwdSeq            []*tensor.Dense
	bwdCursor         int
	// obs, when non-nil, is notified of each replayed step's dependency
	// metadata (see ReplayObserver); set by the whole-step scheduler for
	// the duration of a scheduled replay.
	obs ReplayObserver
}

// progStep is one recorded replay step. Steps recorded through CaptureRW
// carry the tensors they read and write (open = true: they open a new
// scheduler DAG node); plain Capture steps are riders whose charges attach
// to whatever node is current (device cost annotations, view rebinds).
type progStep struct {
	fn            func()
	label         string
	reads, writes []*tensor.Dense
	open          bool
}

// ReplayObserver is notified, during ReplayForward and a frozen tape's
// backward pass, of each step that should become a node in a whole-step
// dependency DAG, just before the step's math (and therefore its device
// charges) runs:
// ForwardNode for each CaptureRW step with the tensors it reads/writes,
// BackwardNode for each tape node's backward closure, HookNode for each
// targeted backward hook (OnBackwardFor). Implemented by internal/sched.
type ReplayObserver interface {
	ForwardNode(label string, reads, writes []*tensor.Dense)
	BackwardNode(v *Var)
	HookNode(v, target *Var)
}

// SetReplayObserver installs (or, with nil, removes) the observer for
// subsequent replays on this tape.
func (t *Tape) SetReplayObserver(o ReplayObserver) { t.obs = o }

// NewTape returns an empty tape. A fresh tape is typically created per
// training iteration; steady-state loops instead keep one arena-backed tape
// per worker (NewTapeArena) and Reset it between iterations.
func NewTape() *Tape { return &Tape{} }

// NewTapeArena returns a tape whose scratch tensors are pooled in a: Reset
// returns them (and the tape's Var nodes) to the pool for the next
// iteration. The arena must be owned by the same goroutine as the tape.
func NewTapeArena(a *tensor.Arena) *Tape { return &Tape{arena: a} }

// Arena returns the backing arena, or nil for a plain tape.
func (t *Tape) Arena() *tensor.Arena { return t.arena }

// Len returns the number of recorded non-leaf operations.
func (t *Tape) Len() int { return len(t.nodes) }

// NewTensor returns a zeroed [r x c] tensor owned by the tape: with an
// arena it is pooled memory that Reset reclaims, without one it is a plain
// allocation. All op outputs and gradients are allocated through it.
func (t *Tape) NewTensor(r, c int) *tensor.Dense { return t.newTensor(r, c, true) }

// newProduct is NewTensor for the output of a matrix product: the *Into
// kernels set every element, so recycled memory — an arena slab, or the
// tensor a backward replay hands back — is not zeroed first.
func (t *Tape) newProduct(r, c int) *tensor.Dense { return t.newTensor(r, c, false) }

func (t *Tape) newTensor(r, c int, zero bool) *tensor.Dense {
	if t != nil && t.inBackward && t.frozen {
		// Replaying a captured backward pass: hand back the tensors the
		// capture run allocated, in the same deterministic order, resized
		// to the live shapes.
		if t.bwdCursor >= len(t.bwdSeq) {
			panic("autograd: backward replay allocates more tensors than its capture did")
		}
		d := t.bwdSeq[t.bwdCursor]
		t.bwdCursor++
		if zero {
			d.Resize(r, c)
		} else {
			d.ResizeUninit(r, c)
		}
		return d
	}
	if t != nil && t.inBackward && t.capturing {
		d := tensor.New(r, c)
		t.bwdSeq = append(t.bwdSeq, d)
		return d
	}
	if t == nil || t.arena == nil {
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

// NewView returns an [r x c] header over v (not copied). The header is
// pooled; the backing memory stays whoever's it was.
func (t *Tape) NewView(r, c int, v []float32) *tensor.Dense {
	if t == nil || t.arena == nil {
		return tensor.FromSlice(r, c, v)
	}
	d := t.arena.View(r, c, v)
	t.views = append(t.views, d)
	return d
}

// Reset clears the tape for the next iteration, recycling every Var node
// and every arena-backed tensor handed out since the previous Reset. All
// Vars and tape-owned tensors from before the Reset are invalidated — the
// caller must not hold on to logits, gradients or views across it. It also
// leaves no-grad mode: parameters bound after it need gradients.
func (t *Tape) Reset() {
	t.noGrad = false
	clear(t.nodes)
	t.nodes = t.nodes[:0]
	for _, v := range t.vars {
		v.Value, v.Grad, v.back, v.needGrad = nil, nil, nil, false
		v.in, v.nin = [2]*Var{}, 0
		clear(v.post)
		v.post = v.post[:0]
		t.free = append(t.free, v)
	}
	clear(t.vars)
	t.vars = t.vars[:0]
	if t.arena != nil {
		for i, d := range t.owned {
			t.arena.Put(d)
			t.owned[i] = nil
		}
		t.owned = t.owned[:0]
		for i, d := range t.views {
			t.arena.PutHeader(d)
			t.views[i] = nil
		}
		t.views = t.views[:0]
	}
}

// ResetNoGrad is Reset for a forward that no backward will follow
// (evaluation, inference, serving). Until the next Reset, Param binds its
// tensor as a constant, so no op of the forward needs a gradient and none is
// recorded: values and device charges are those of a recording forward, but
// no backward closure, input list or backward hook is built. Backward,
// BackwardHooked and BeginCapture panic in this mode.
func (t *Tape) ResetNoGrad() {
	t.Reset()
	t.noGrad = true
}

// mustRecord panics when the tape is in no-grad mode: op names the backward
// entry point that was called.
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

// Const wraps a constant input (no gradient). It is also the value-only
// result of an op none of whose inputs needs a gradient: op constructors,
// custom ones included, return Const(out) instead of calling Op, so that no
// backward closure is built.
func (t *Tape) Const(v *tensor.Dense) *Var {
	p := t.newVar()
	p.Value, p.needGrad = v, false
	return p
}

// Op records a custom operation producing out from inputs (at most two),
// with back propagating the output gradient into the inputs (via
// AccumGrad). The node keeps the inputs inline and does not retain the
// slice, so callers pass a literal that stays on their stack. If no input
// needs a gradient nothing is recorded and the result is value-only, like
// Const(out); constructors check that first, before building back.
func (t *Tape) Op(out *tensor.Dense, inputs []*Var, back func(v *Var)) *Var {
	if len(inputs) > len(Var{}.in) {
		panic(fmt.Sprintf("autograd: an op takes at most %d inputs, got %d", len(Var{}.in), len(inputs)))
	}
	need := false
	for _, in := range inputs {
		if in.tape != t {
			panic("autograd: input from a different tape")
		}
		if in.needGrad {
			need = true
		}
	}
	if !need {
		return t.Const(out)
	}
	v := t.newVar()
	v.Value, v.needGrad, v.back = out, true, back
	v.nin = copy(v.in[:], inputs)
	t.nodes = append(t.nodes, v)
	return v
}

// Backward seeds loss.Grad with seed (same shape as loss.Value) and runs the
// tape in reverse, accumulating gradients into all parameters. On a tape
// frozen by EndCapture it is the allocation-free replay of the captured
// backward pass: every gradient lands in the buffer its capture run used.
func (t *Tape) Backward(loss *Var, seed *tensor.Dense) {
	t.mustRecord("Backward")
	t.replay(loss, seed, nil, nil)
}

// BackwardHooked runs Backward and additionally reports, for each variable
// in watch (typically leaf parameters), the moment its gradient becomes
// final: onReady(i) is called for watch[i] right after the lowest-indexed
// tape node consuming it has replayed — no later node can touch its Grad.
// Watched variables never consumed by the tape are reported after the
// replay. The gradient-overlap trainer uses this to hand parameter buckets
// to the collective engine while the rest of the backward pass still runs.
func (t *Tape) BackwardHooked(loss *Var, seed *tensor.Dense, watch []*Var, onReady func(int)) {
	t.mustRecord("BackwardHooked")
	t.replay(loss, seed, watch, onReady)
}

// --- Step capture/replay (CUDA-Graph-style) ---
//
// A capture iteration runs the model eagerly on a plain (non-arena) tape
// between BeginCapture and EndCapture. Op constructors still execute their
// math inline, but additionally append a replay closure to the tape's
// program: the closure resizes the op's output from the live input shapes
// and re-runs the math into the same buffer. The backward pass records, in
// execution order, every gradient tensor it allocates, so a later Backward
// on the frozen tape walks it with zero allocations, handing each closure
// the buffer its capture run used.
//
// Replays therefore re-execute the exact op sequence with no tape mutation
// and no per-op closure allocation — only buffer rebinding — which is what
// lets the trainer bracket them in sim.BeginGraphReplay and charge one
// graph launch instead of N kernel launches. Captured programs tolerate
// changing *row counts* (every closure reads shapes live); a change of
// graph *structure* (different op sequence, different block topology)
// requires a fresh capture — the trainer's invalidation check handles that.

// BeginCapture puts the tape into capture mode. The tape must be a plain
// NewTape (no arena): captured tensors live as long as the program and must
// never be recycled by Reset.
func (t *Tape) BeginCapture() {
	if t.arena != nil {
		panic("autograd: capture requires a plain (non-arena) tape")
	}
	t.mustRecord("BeginCapture")
	t.capturing, t.frozen = true, false
	clear(t.program)
	t.program = t.program[:0]
	t.bwdSeq = t.bwdSeq[:0]
}

// Capturing reports whether the tape is between BeginCapture and EndCapture.
// Layers consult it to record their device-charging steps via Capture.
func (t *Tape) Capturing() bool { return t != nil && t.capturing }

// Capture appends fn to the replay program when capturing; otherwise it is
// a no-op. Layers use it to record device cost charges and out-of-band
// forward steps (e.g. self-loop block rebuilds) in op order. Steps recorded
// this way are riders in the scheduler's DAG: their charges attach to the
// node of the preceding CaptureRW step.
func (t *Tape) Capture(fn func()) {
	if t != nil && t.capturing {
		t.program = append(t.program, progStep{fn: fn})
	}
}

// CaptureRW is Capture with dependency metadata: the step reads the given
// tensors and (re)writes the given tensors. Op constructors use it so the
// whole-step scheduler can recover producer/consumer edges between replayed
// steps; reads/writes are retained for the program's lifetime.
func (t *Tape) CaptureRW(label string, fn func(), reads, writes []*tensor.Dense) {
	if t != nil && t.capturing {
		t.program = append(t.program, progStep{fn: fn, label: label, reads: reads, writes: writes, open: true})
	}
}

// EndCapture leaves capture mode, freezing the recorded program: from now on
// ReplayForward re-runs the forward and Backward/BackwardHooked replay the
// backward pass over the captured gradient buffers. Call it after the
// capture iteration's backward pass so gradient buffers are recorded too.
func (t *Tape) EndCapture() { t.capturing, t.frozen = false, true }

// ProgramLen returns the number of recorded replay steps.
func (t *Tape) ProgramLen() int { return len(t.program) }

// ReplayForward re-executes the captured forward program against the
// current parameter/input buffers: gradients are cleared and each recorded
// step re-runs its math into the buffers wired up at capture. The caller
// must have rebound any buffers that moved (parameters, batch inputs)
// before calling.
func (t *Tape) ReplayForward() {
	for _, v := range t.vars {
		v.Grad = nil
	}
	for i := range t.program {
		s := &t.program[i]
		if t.obs != nil && s.open {
			t.obs.ForwardNode(s.label, s.reads, s.writes)
		}
		s.fn()
	}
}

func (t *Tape) replay(loss *Var, seed *tensor.Dense, watch []*Var, onReady func(int)) {
	if loss.tape != t {
		panic("autograd: loss from a different tape")
	}
	if !loss.Value.SameShape(seed) {
		panic(fmt.Sprintf("autograd: seed shape %dx%d for loss %dx%d",
			seed.R, seed.C, loss.Value.R, loss.Value.C))
	}
	watchMin := t.watchMin[:0]
	if len(watch) > 0 {
		if t.watchIdx == nil {
			t.watchIdx = make(map[*Var]int, len(watch))
		}
		for wi, w := range watch {
			watchMin = append(watchMin, -1)
			t.watchIdx[w] = wi
		}
		// First (lowest-index) consumer of each watched var wins: once it
		// has replayed, nothing before it in the reverse sweep remains.
		for i, v := range t.nodes {
			for _, in := range v.Inputs() {
				if wi, ok := t.watchIdx[in]; ok && watchMin[wi] == -1 {
					watchMin[wi] = i
				}
			}
		}
		clear(t.watchIdx)
	}
	t.inBackward, t.bwdCursor = true, 0
	defer func() { t.inBackward = false }()
	loss.AccumGrad(seed)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		v := t.nodes[i]
		if v.Grad != nil && v.back != nil {
			if t.obs != nil {
				t.obs.BackwardNode(v)
			}
			v.back(v)
			for _, h := range v.post {
				if t.obs != nil {
					t.obs.HookNode(v, h.target)
				}
				h.fn()
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
	if t.frozen && t.bwdCursor != len(t.bwdSeq) {
		panic(fmt.Sprintf("autograd: backward replay used %d of %d captured tensors",
			t.bwdCursor, len(t.bwdSeq)))
	}
}

// --- Built-in operations ---
//
// Kernels shared by the eager forward and the captured replay are plain
// functions, so that nothing but the capture and backward closures — built
// only on the paths that keep them — allocates.

// MatMul returns x*w with gradients to both inputs.
func MatMul(x, w *Var) *Var {
	t := x.tape
	out := t.newProduct(x.Value.R, w.Value.C)
	tensor.MatMulInto(out, x.Value, w.Value)
	if t.capturing {
		t.CaptureRW("matmul", func() {
			out.ResizeUninit(x.Value.R, w.Value.C)
			tensor.MatMulInto(out, x.Value, w.Value)
		}, []*tensor.Dense{x.Value, w.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad && !w.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x, w}, func(v *Var) {
		if x.needGrad {
			gx := t.newProduct(x.Value.R, x.Value.C)
			tensor.MatMulTInto(gx, v.Grad, w.Value) // dX = dY * Wᵀ
			x.AccumGrad(gx)
		}
		if w.needGrad {
			gw := t.newProduct(w.Value.R, w.Value.C)
			tensor.TMatMulInto(gw, x.Value, v.Grad) // dW = Xᵀ * dY
			w.AccumGrad(gw)
		}
	})
}

// Add returns a + b elementwise.
func Add(a, b *Var) *Var {
	t := a.tape
	out := t.NewTensor(a.Value.R, a.Value.C)
	tensor.AddInto(out, a.Value, b.Value)
	if t.capturing {
		t.CaptureRW("add", func() {
			out.ResizeUninit(a.Value.R, a.Value.C)
			tensor.AddInto(out, a.Value, b.Value)
		}, []*tensor.Dense{a.Value, b.Value}, []*tensor.Dense{out})
	}
	if !a.needGrad && !b.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{a, b}, func(v *Var) {
		a.AccumGrad(v.Grad)
		b.AccumGrad(v.Grad)
	})
}

// AddBias returns x with the (1 x C) bias row added to every row.
func AddBias(x, b *Var) *Var {
	t := x.tape
	out := t.NewTensor(x.Value.R, x.Value.C)
	tensor.AddRowInto(out, x.Value, b.Value)
	if t.capturing {
		t.CaptureRW("addbias", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			tensor.AddRowInto(out, x.Value, b.Value)
		}, []*tensor.Dense{x.Value, b.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad && !b.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x, b}, func(v *Var) {
		x.AccumGrad(v.Grad)
		if b.needGrad {
			gb := t.NewTensor(1, b.Value.C)
			tensor.ColSumInto(gb, v.Grad)
			b.AccumGrad(gb)
		}
	})
}

// ReLU returns max(x, 0).
func ReLU(x *Var) *Var {
	t := x.tape
	out := t.NewTensor(x.Value.R, x.Value.C)
	tensor.ReLUInto(out, x.Value)
	if t.capturing {
		t.CaptureRW("relu", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			tensor.ReLUInto(out, x.Value)
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x}, func(v *Var) {
		gx := t.NewTensor(x.Value.R, x.Value.C)
		tensor.ReLUGradInto(gx, x.Value, v.Grad)
		x.AccumGrad(gx)
	})
}

// Scale returns s*x.
func Scale(x *Var, s float32) *Var {
	t := x.tape
	out := t.NewTensor(x.Value.R, x.Value.C)
	tensor.ScaleInto(out, x.Value, s)
	if t.capturing {
		t.CaptureRW("scale", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			tensor.ScaleInto(out, x.Value, s)
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x}, func(v *Var) {
		gx := t.NewTensor(x.Value.R, x.Value.C)
		tensor.ScaleInto(gx, v.Grad, s)
		x.AccumGrad(gx)
	})
}

// Dropout zeroes entries with probability p, one src.Float32 draw each,
// scaling survivors by 1/(1-p). With p <= 0 it is the identity.
func Dropout(x *Var, p float32, src *xrand.Source) *Var {
	t := x.tape
	out := t.NewTensor(x.Value.R, x.Value.C)
	mask := t.NewTensor(x.Value.R, x.Value.C)
	tensor.DropoutInto(out, x.Value, mask, p, src)
	if t.capturing {
		// Replays re-draw from src in op order; since draw counts track the
		// live shapes, a replayed epoch consumes the same random stream the
		// eager epoch would, keeping the two bit-identical.
		t.CaptureRW("dropout", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			mask.ResizeUninit(x.Value.R, x.Value.C)
			tensor.DropoutInto(out, x.Value, mask, p, src)
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out, mask})
	}
	if !x.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x}, func(v *Var) {
		gx := t.NewTensor(x.Value.R, x.Value.C)
		tensor.MulInto(gx, v.Grad, mask)
		x.AccumGrad(gx)
	})
}

// Rows returns the sub-matrix of the first *n rows of x (a view for the
// forward value; the backward scatters the gradient into the top rows). GNN
// layers use it to slice target-node rows off a gathered feature block, with
// n pointing at the block's target count: a captured step re-reads *n on
// every replay, so the slice tracks the live batch size.
func Rows(x *Var, n *int) *Var {
	if *n > x.Value.R {
		panic(fmt.Sprintf("autograd: Rows(%d) of %d-row matrix", *n, x.Value.R))
	}
	t := x.tape
	out := t.NewView(*n, x.Value.C, x.Value.V[:*n*x.Value.C])
	if t.capturing {
		t.CaptureRW("rows", func() {
			out.R, out.C = *n, x.Value.C
			out.V = x.Value.V[:*n*x.Value.C]
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x}, func(v *Var) { rowsBackward(x, v) })
}

// rowsBackward scatters the gradient of a top-rows slice v of x into x.
func rowsBackward(x, v *Var) {
	gx := x.tape.NewTensor(x.Value.R, x.Value.C)
	copy(gx.V, v.Grad.V) // fills the first v.Grad.R rows, rest stays zero
	x.AccumGrad(gx)
}

// ConcatCols returns [a | b] column-wise.
func ConcatCols(a, b *Var) *Var {
	if a.Value.R != b.Value.R {
		panic("autograd: ConcatCols row mismatch")
	}
	t := a.tape
	ca, cb := a.Value.C, b.Value.C
	out := t.NewTensor(a.Value.R, ca+cb)
	concatCols(out, a.Value, b.Value)
	if t.capturing {
		// Column widths are structural (fixed per capture); row counts are
		// read live.
		t.CaptureRW("concat", func() {
			out.ResizeUninit(a.Value.R, ca+cb)
			concatCols(out, a.Value, b.Value)
		}, []*tensor.Dense{a.Value, b.Value}, []*tensor.Dense{out})
	}
	if !a.needGrad && !b.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{a, b}, func(v *Var) {
		if a.needGrad {
			ga := t.NewTensor(a.Value.R, ca)
			for i := 0; i < a.Value.R; i++ {
				copy(ga.Row(i), v.Grad.Row(i)[:ca])
			}
			a.AccumGrad(ga)
		}
		if b.needGrad {
			gb := t.NewTensor(b.Value.R, cb)
			for i := 0; i < b.Value.R; i++ {
				copy(gb.Row(i), v.Grad.Row(i)[ca:])
			}
			b.AccumGrad(gb)
		}
	})
}

// concatCols writes [a | b] into out, which is [a.R x a.C+b.C].
func concatCols(out, a, b *tensor.Dense) {
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
}

// GatherRows returns the rows of x selected by idx (duplicates allowed);
// the backward pass scatter-adds the output gradient back into the source
// rows. Link-prediction heads use it to pull endpoint embeddings out of an
// encoder's output block.
func GatherRows(x *Var, idx []int) *Var {
	t := x.tape
	out := t.NewTensor(len(idx), x.Value.C)
	gatherRows(out, x.Value, idx)
	if t.capturing {
		// idx is structural: a capture is only valid while the caller keeps
		// feeding the same index set.
		t.CaptureRW("gather", func() {
			out.ResizeUninit(len(idx), x.Value.C)
			gatherRows(out, x.Value, idx)
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x}, func(v *Var) {
		gx := t.NewTensor(x.Value.R, x.Value.C)
		for i, r := range idx {
			dst := gx.Row(r)
			src := v.Grad.Row(i)
			for j, g := range src {
				dst[j] += g
			}
		}
		x.AccumGrad(gx)
	})
}

// gatherRows copies row idx[i] of x into row i of out.
func gatherRows(out, x *tensor.Dense, idx []int) {
	for i, r := range idx {
		copy(out.Row(i), x.Row(r))
	}
}

// RowDot returns the row-wise dot products of a and b as an [n x 1] column.
func RowDot(a, b *Var) *Var {
	if !a.Value.SameShape(b.Value) {
		panic("autograd: RowDot shape mismatch")
	}
	t := a.tape
	out := t.NewTensor(a.Value.R, 1)
	rowDot(out, a.Value, b.Value)
	if t.capturing {
		t.CaptureRW("rowdot", func() {
			out.ResizeUninit(a.Value.R, 1)
			rowDot(out, a.Value, b.Value)
		}, []*tensor.Dense{a.Value, b.Value}, []*tensor.Dense{out})
	}
	if !a.needGrad && !b.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{a, b}, func(v *Var) {
		if a.needGrad {
			ga := t.NewTensor(a.Value.R, a.Value.C)
			for i := 0; i < a.Value.R; i++ {
				g := v.Grad.V[i]
				br, gr := b.Value.Row(i), ga.Row(i)
				for j := range gr {
					gr[j] = g * br[j]
				}
			}
			a.AccumGrad(ga)
		}
		if b.needGrad {
			gb := t.NewTensor(b.Value.R, b.Value.C)
			for i := 0; i < b.Value.R; i++ {
				g := v.Grad.V[i]
				ar, gr := a.Value.Row(i), gb.Row(i)
				for j := range gr {
					gr[j] = g * ar[j]
				}
			}
			b.AccumGrad(gb)
		}
	})
}

// rowDot writes the row-wise dot products of a and b into out ([a.R x 1]).
func rowDot(out, a, b *tensor.Dense) {
	for i := 0; i < a.R; i++ {
		var s float32
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			s += ar[j] * br[j]
		}
		out.V[i] = s
	}
}

// ScaleByScalarPlusOne returns (1 + s) * x where s is a learnable [1 x 1]
// scalar (the eps of a GIN layer). Gradients flow to both inputs:
// dx = (1+s)·dy and ds = sum(x ⊙ dy).
func ScaleByScalarPlusOne(x, s *Var) *Var {
	if s.Value.R != 1 || s.Value.C != 1 {
		panic("autograd: scalar must be 1x1")
	}
	t := x.tape
	out := t.NewTensor(x.Value.R, x.Value.C)
	// The factor is read live inside each closure rather than bound at
	// record time: the optimizer updates s between a capture and its
	// replays, and the eager pass reads s before the optimizer runs, so the
	// two stay equivalent.
	tensor.ScaleInto(out, x.Value, 1+s.Value.V[0])
	if t.capturing {
		t.CaptureRW("scale1p", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			tensor.ScaleInto(out, x.Value, 1+s.Value.V[0])
		}, []*tensor.Dense{x.Value, s.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad && !s.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x, s}, func(v *Var) {
		if x.needGrad {
			gx := t.NewTensor(x.Value.R, x.Value.C)
			tensor.ScaleInto(gx, v.Grad, 1+s.Value.V[0])
			x.AccumGrad(gx)
		}
		if s.needGrad {
			var dot float64
			for i, g := range v.Grad.V {
				dot += float64(g) * float64(x.Value.V[i])
			}
			gs := t.NewTensor(1, 1)
			gs.V[0] = float32(dot)
			s.AccumGrad(gs)
		}
	})
}

// SegmentMeanRows mean-pools consecutive row segments of x: segment g is
// rows [offsets[g], offsets[g+1]), and output row g is their mean. It is
// the readout of graph classification (pooling each small graph's node
// embeddings into one vector). Empty segments produce zero rows.
func SegmentMeanRows(x *Var, offsets []int) *Var {
	nSeg := len(offsets) - 1
	if nSeg < 0 || offsets[nSeg] > x.Value.R {
		panic("autograd: bad segment offsets")
	}
	t := x.tape
	out := t.NewTensor(nSeg, x.Value.C)
	segmentMean(out, x.Value, offsets)
	if t.capturing {
		// offsets are structural; Resize zeroes out so empty segments stay
		// zero rows on every replay.
		t.CaptureRW("segmean", func() {
			out.Resize(nSeg, x.Value.C)
			segmentMean(out, x.Value, offsets)
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	if !x.needGrad {
		return t.Const(out)
	}
	return t.Op(out, []*Var{x}, func(v *Var) {
		gx := t.NewTensor(x.Value.R, x.Value.C)
		for g := 0; g < nSeg; g++ {
			lo, hi := offsets[g], offsets[g+1]
			if hi <= lo {
				continue
			}
			inv := 1 / float32(hi-lo)
			gr := v.Grad.Row(g)
			for r := lo; r < hi; r++ {
				dst := gx.Row(r)
				for j, gv := range gr {
					dst[j] += gv * inv
				}
			}
		}
		x.AccumGrad(gx)
	})
}

// segmentMean accumulates the mean of each row segment of x into out, which
// must be zeroed, [len(offsets)-1 x x.C].
func segmentMean(out, x *tensor.Dense, offsets []int) {
	for g := 0; g+1 < len(offsets); g++ {
		lo, hi := offsets[g], offsets[g+1]
		if hi <= lo {
			continue
		}
		or := out.Row(g)
		for r := lo; r < hi; r++ {
			for j, v := range x.Row(r) {
				or[j] += v
			}
		}
		inv := 1 / float32(hi-lo)
		for j := range or {
			or[j] *= inv
		}
	}
}
