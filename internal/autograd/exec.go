package autograd

import (
	"runtime"
	"sync/atomic"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// A pass is a replay's forward or a backward. On a replayed tape a record's
// math runs once the records it depends on are done, on the owner (the
// caller) or a helper from the dense kernels' pool, while charges, observer
// calls and hooks keep record order on the owner: a record run off its turn
// prices its kernel on its claimant's graph twin, recharged in its turn.
// DESIGN.md §9 "Concurrent replay" lists the dependencies.

// A step's state in a concurrent pass: the steps it still waits for, then
// claimed, then done.
const (
	claimed int32 = -1
	done    int32 = -2
)

// deps is one pass's dependency graph: step s is record s of a forward and
// record n-1-s of a backward, so every edge points to a later step.
type deps struct {
	need []int32   // how many steps step s waits for
	succ [][]int32 // the steps waiting for step s
}

// dep makes step s wait for step p, if p >= 0. An edge added twice is
// counted and released twice, so repeats need no check.
func (d *deps) dep(p, s int) {
	if p >= 0 {
		d.succ[p] = append(d.succ[p], int32(s))
		d.need[s]++
	}
}

// exec runs a replayed tape's passes concurrently.
type exec struct {
	t        *Tape
	dev      *sim.Device // the one device the records charge, or nil
	solo     bool        // the records charge more than one device
	fwd, bwd deps
	coop     func(claimant int) // claimant, bound once
	twins    []*sim.Device      // claimant c's graph twin of dev
	w        int                // claimants

	// The pass in flight, set up before helpers join.
	g      *deps
	state  []atomic.Int32
	spans  [][]sim.Charge // what step s priced on a twin
	cursor atomic.Int32   // the step whose turn it is
	failed atomic.Bool    // a claimant panicked: all stop
	cause  any            // its panic, re-raised on the owner
}

// run runs one pass of t: a replay's forward or, with t.back, a backward.
func (t *Tape) run() {
	if e := t.executor(); e != nil {
		e.pass()
		return
	}
	for s := range t.ops {
		t.step(t.record(s), nil, true)
	}
}

// record returns the index of the record at step s of the pass.
func (t *Tape) record(s int) int {
	if t.back {
		return len(t.ops) - 1 - s
	}
	return s
}

// step is record i's turn: its observer node, its kernel when inline (else
// the charges it priced), its Cost charges, then a backward's hooks.
func (t *Tape) step(i int, priced []sim.Charge, inline bool) {
	r := &t.ops[i]
	if runs(r, t.back) {
		switch {
		case !t.back:
			if t.obs != nil && r.Out != nil {
				t.obs.ForwardNode(r)
			}
		case t.obs != nil:
			t.obs.BackwardNode(r)
		}
		if inline {
			kernel(r, t.back)
		} else if len(priced) > 0 {
			r.Dev.Recharge(priced)
		}
		t.cost(r)
	}
	for wi, mi := range t.watchMin {
		if mi == i {
			t.onReady(wi)
		}
	}
}

// runs reports whether r has work in the pass: every forward does, a
// backward when r's output needs a gradient and one reached it.
func runs(r *Record, back bool) bool {
	return !back || r.Out != nil && r.Out.needGrad && r.Out.Grad != nil
}

func kernel(r *Record, back bool) {
	if back {
		r.Kernel.Backward(r)
	} else {
		r.Kernel.Forward(r)
	}
}

// cost makes r's Cost charges: its forward charge, or each backward charge
// as its own observed node.
func (t *Tape) cost(r *Record) {
	if r.Cost == nil {
		return
	}
	if !t.back {
		r.Cost.ChargeForward(r)
		return
	}
	for j := 0; j < len(r.In) && r.In[j] != nil; j++ {
		if t.obs != nil {
			t.obs.HookNode(r, j)
		}
		r.Cost.ChargeBackward(r, j)
	}
}

// executor returns the tape's executor when the pass runs concurrently: a
// replayed tape, more than one worker and more than one P to run them, and
// records charging at most one device, inside a graph-replay bracket.
func (t *Tape) executor() *exec {
	w := min(tensor.Workers(), runtime.GOMAXPROCS(0), len(t.ops))
	if !t.replayed || w < 2 {
		return nil
	}
	if t.ex == nil || len(t.ex.state) != len(t.ops) {
		t.ex = newExec(t)
	}
	e := t.ex
	if e.solo || e.dev != nil && !e.dev.InGraphReplay() {
		return nil
	}
	for e.dev != nil && len(e.twins) < w {
		e.twins = append(e.twins, e.dev.GraphTwin())
	}
	e.w = w
	return e
}

// newExec derives both passes' dependencies from t's records.
func newExec(t *Tape) *exec {
	n := len(t.ops)
	e := &exec{t: t, state: make([]atomic.Int32, n), spans: make([][]sim.Charge, n),
		fwd: deps{make([]int32, n), make([][]int32, n)}, bwd: deps{make([]int32, n), make([][]int32, n)}}
	e.coop = e.claimant
	// Room for a few charges per step up front: which steps run off their
	// turn varies from pass to pass, and a list growing then allocates.
	const room = 4
	spans := make([]sim.Charge, room*n)
	for s := range e.spans {
		e.spans[s] = spans[room*s : room*s : room*(s+1)]
	}
	prod := make(map[*Var]int, n)
	rider, random := -1, -1
	for i := range t.ops {
		r := &t.ops[i]
		if d := r.Dev; d != nil && d != e.dev {
			e.solo, e.dev = e.solo || e.dev != nil, d
		}
		for _, in := range r.In {
			if p, ok := prod[in]; ok {
				e.fwd.dep(p, i)
			}
		}
		if _, ok := r.Arg.(*xrand.Source); ok {
			e.fwd.dep(random, i)
			random = i
		}
		e.fwd.dep(rider, i)
		if r.Out != nil {
			prod[r.Out] = i
			continue
		}
		for p := rider + 1; p < i; p++ {
			e.fwd.dep(p, i)
		}
		rider = i
	}
	// The lowest consumer so far of a var needing a gradient is the next
	// accumulator into it, and for a record's output the last one.
	last := make(map[*Var]int, n)
	for s := range n {
		i := n - 1 - s
		r := &t.ops[i]
		if p, ok := last[r.Out]; ok {
			e.bwd.dep(n-1-p, s)
		}
		for _, in := range r.In {
			if in != nil && in.needGrad {
				if p, ok := last[in]; ok && p != i {
					e.bwd.dep(n-1-p, s)
				}
				last[in] = i
			}
		}
	}
	return e
}

// pass runs a pass on the owner and the helpers that join it; helpers take
// no memory from the tape's arena (newTensor).
func (e *exec) pass() {
	e.g = &e.fwd
	if e.t.back {
		e.g = &e.bwd
	}
	for s := range e.state {
		e.state[s].Store(e.g.need[s])
	}
	e.cursor.Store(0)
	e.t.shared = true
	tensor.Cooperate(e.w, e.coop)
	e.t.shared = false
	if e.failed.Load() {
		for i := range e.t.ops {
			if e.t.ops[i].Dev != nil {
				e.t.ops[i].Dev = e.dev // a kernel may have died on a twin
			}
		}
		p := e.cause
		e.failed.Store(false)
		e.cause = nil
		panic(p)
	}
}

// catch, deferred by every claimant, ends the pass at its first panic: the
// other claimants stop, and pass re-raises it on the owner, as
// sim.RunParallel does a slot's.
func (e *exec) catch() {
	if p := recover(); p != nil && e.failed.CompareAndSwap(false, true) {
		e.cause = p
	}
}

// claimant is claimant c's share of a pass. A helper claims ready steps
// until none waits. The owner gives each step its turn, running it inline if
// it is ready then, and meanwhile runs other ready steps.
func (e *exec) claimant(c int) {
	defer e.catch()
	if c > 0 {
		for s := e.take(); s != -2 && !e.failed.Load(); s = e.take() {
			if s >= 0 {
				e.runOff(c, s)
			} else {
				runtime.Gosched()
			}
		}
		return
	}
	for cur := 0; cur < len(e.state) && !e.failed.Load(); {
		switch st := &e.state[cur]; {
		case st.Load() == done:
			e.t.step(e.t.record(cur), e.spans[cur], false)
		case st.CompareAndSwap(0, claimed):
			e.t.step(e.t.record(cur), nil, true)
			e.complete(cur)
		default:
			if s := e.take(); s >= 0 {
				e.runOff(0, s)
			} else {
				runtime.Gosched()
			}
			continue
		}
		cur++
		e.cursor.Store(int32(cur))
	}
}

// take claims the lowest ready step, or returns -1 while a step waits and -2
// when none does.
func (e *exec) take() int {
	idle := -2
	for s := int(e.cursor.Load()); s < len(e.state); s++ {
		if e.state[s].CompareAndSwap(0, claimed) {
			return s
		}
		if e.state[s].Load() >= 0 {
			idle = -1
		}
	}
	return idle
}

// runOff runs step s for claimant c off its turn, pricing it on c's twin.
func (e *exec) runOff(c, s int) {
	t := e.t
	r := &t.ops[t.record(s)]
	e.spans[s] = e.spans[s][:0]
	if runs(r, t.back) {
		dev := r.Dev
		if dev != nil {
			r.Dev = e.twins[c]
			r.Dev.Record(&e.spans[s])
		}
		kernel(r, t.back)
		r.Dev = dev
	}
	e.complete(s)
}

// complete releases the steps waiting for s and marks it done.
func (e *exec) complete(s int) {
	for _, x := range e.g.succ[s] {
		e.state[x].Add(-1)
	}
	e.state[s].Store(done)
}
