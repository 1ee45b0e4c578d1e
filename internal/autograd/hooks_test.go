package autograd

import (
	"math/rand"
	"testing"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// countCost is a Cost that counts its charges and checks, at each backward
// charge, that the op's backward already produced the input's gradient.
type countCost struct {
	t        *testing.T
	fwd, bwd int
}

func (c *countCost) ChargeForward(*Record) { c.fwd++ }

func (c *countCost) ChargeBackward(r *Record, i int) {
	c.bwd++
	if in := r.In[i]; in.NeedsGrad() && in.Grad == nil {
		c.t.Error("a backward charge ran before the op's backward produced its input's gradient")
	}
}

// TestOnBackwardFiresAfterBack checks that a Cost charges its forward once
// when the op is priced, and its backward once per input, after the op's
// backward ran (the input gradient exists by then) — and not at all when no
// gradient reaches the op.
func TestOnBackwardFiresAfterBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dev := sim.NewMachine(sim.DGXA100(1)).Devs[0]

	tp := NewTape()
	y := MatMul(tp.Const(tensor.Randn(3, 4, 1, rng)), tp.Param(tensor.Randn(4, 2, 1, rng)))
	c := &countCost{t: t}
	tp.Charge(y, dev, c)
	tp.Backward(y, ones(3, 2))
	if c.fwd != 1 || c.bwd != 2 {
		t.Fatalf("cost charged %d forward and %d backward, want 1 and 2", c.fwd, c.bwd)
	}

	// A branch the loss gradient never reaches: its cost stays silent.
	tp2 := NewTape()
	dead := ReLU(tp2.Param(tensor.Randn(2, 2, 1, rng)))
	deadCost := &countCost{t: t}
	tp2.Charge(dead, dev, deadCost)
	live := Scale(tp2.Param(tensor.Randn(2, 2, 1, rng)), 2)
	tp2.Backward(live, ones(2, 2))
	if deadCost.bwd != 0 {
		t.Fatalf("a cost charged %d backward kernels on an unreached op", deadCost.bwd)
	}

	// Without a device nothing is priced.
	tp3 := NewTape()
	y3 := ReLU(tp3.Param(ones(2, 2)))
	nodev := &countCost{t: t}
	tp3.Charge(y3, nil, nodev)
	tp3.Backward(y3, ones(2, 2))
	if nodev.fwd+nodev.bwd != 0 {
		t.Fatalf("a cost without a device charged %d times", nodev.fwd+nodev.bwd)
	}
}

// TestResetClearsHooks checks that recycled records do not re-run a Cost
// priced before a Reset.
func TestResetClearsHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dev := sim.NewMachine(sim.DGXA100(1)).Devs[0]
	tp := NewTapeArena(tensor.NewArena())
	wv := tensor.Randn(2, 2, 1, rng)

	stale := &countCost{t: t}
	y := ReLU(tp.Param(wv))
	tp.Charge(y, dev, stale)
	tp.Backward(y, ones(2, 2))
	if stale.bwd != 1 {
		t.Fatalf("cost charged %d backward kernels before Reset, want 1", stale.bwd)
	}

	tp.Reset()
	y2 := ReLU(tp.Param(wv))
	tp.Backward(y2, ones(2, 2))
	if stale.fwd != 1 || stale.bwd != 1 {
		t.Fatalf("stale cost re-ran after Reset (%d forward, %d backward)", stale.fwd, stale.bwd)
	}
}

// TestBackwardHookedReadyOrder checks the gradient-readiness protocol: in a
// chain p2 is consumed by a later tape node than p1, so the reverse replay
// finalizes p2's gradient first; each watch index is reported exactly once,
// with the gradient already accumulated; unconsumed watches fire at the end.
func TestBackwardHookedReadyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := NewTape()
	x := tp.Const(tensor.Randn(3, 4, 1, rng))
	p1 := tp.Param(tensor.Randn(4, 4, 1, rng))
	p2 := tp.Param(tensor.Randn(4, 2, 1, rng))
	unused := tp.Param(tensor.Randn(1, 1, 1, rng))

	h := ReLU(MatMul(x, p1)) // consumes p1 early in the tape
	y := MatMul(h, p2)       // consumes p2 later

	var order []int
	tp.BackwardHooked(y, ones(3, 2), []*Var{p1, p2, unused}, func(i int) {
		order = append(order, i)
		switch i {
		case 0:
			if p1.Grad == nil {
				t.Error("p1 reported ready without a gradient")
			}
		case 1:
			if p2.Grad == nil {
				t.Error("p2 reported ready without a gradient")
			}
		}
	})
	if len(order) != 3 {
		t.Fatalf("got %d ready callbacks, want 3 (order %v)", len(order), order)
	}
	if order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Fatalf("ready order = %v, want [1 0 2] (p2 first, unconsumed last)", order)
	}
}

// TestBackwardHookedMatchesBackward checks that the hooked replay computes
// the same gradients as plain Backward.
func TestBackwardHookedMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xv := tensor.Randn(3, 4, 1, rng)
	w1v := tensor.Randn(4, 4, 1, rng)
	w2v := tensor.Randn(4, 2, 1, rng)

	run := func(hooked bool) (*tensor.Dense, *tensor.Dense) {
		tp := NewTape()
		x := tp.Const(xv)
		w1 := tp.Param(w1v)
		w2 := tp.Param(w2v)
		y := MatMul(ReLU(MatMul(x, w1)), w2)
		if hooked {
			tp.BackwardHooked(y, ones(3, 2), []*Var{w1, w2}, func(int) {})
		} else {
			tp.Backward(y, ones(3, 2))
		}
		return w1.Grad, w2.Grad
	}
	g1a, g2a := run(false)
	g1b, g2b := run(true)
	for i := range g1a.V {
		if g1a.V[i] != g1b.V[i] {
			t.Fatalf("w1 grad[%d] differs: %g vs %g", i, g1a.V[i], g1b.V[i])
		}
	}
	for i := range g2a.V {
		if g2a.V[i] != g2b.V[i] {
			t.Fatalf("w2 grad[%d] differs: %g vs %g", i, g2a.V[i], g2b.V[i])
		}
	}
}
