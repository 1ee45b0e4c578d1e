package autograd

import (
	"math/rand"
	"testing"

	"wholegraph/internal/tensor"
)

// TestOnBackwardFiresAfterBack checks that a post hook fires exactly once,
// after the variable's backward closure ran (the input gradient exists by
// then), and that it does not fire when no gradient reaches the variable.
func TestOnBackwardFiresAfterBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xv := tensor.Randn(3, 4, 1, rng)
	wv := tensor.Randn(4, 2, 1, rng)

	tp := NewTape()
	x := tp.Const(xv)
	w := tp.Param(wv)
	y := MatMul(x, w)
	fired := 0
	y.OnBackwardFor(w, func() {
		fired++
		if w.Grad == nil {
			t.Error("hook ran before backward closure populated w.Grad")
		}
	})
	tp.Backward(y, ones(3, 2))
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}

	// A branch the loss gradient never reaches: its hook must stay silent.
	tp2 := NewTape()
	a := tp2.Param(tensor.Randn(2, 2, 1, rng))
	dead := ReLU(a)
	dead.OnBackwardFor(a, func() { t.Error("hook fired on unreached node") })
	live := Scale(tp2.Param(tensor.Randn(2, 2, 1, rng)), 2)
	tp2.Backward(live, ones(2, 2))
}

// TestResetClearsHooks checks that recycled Var nodes do not re-fire hooks
// registered before a Reset.
func TestResetClearsHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	arena := tensor.NewArena()
	tp := NewTapeArena(arena)
	wv := tensor.Randn(2, 2, 1, rng)

	stale := 0
	w := tp.Param(wv)
	y := ReLU(w)
	y.OnBackwardFor(w, func() { stale++ })
	tp.Backward(y, ones(2, 2))
	if stale != 1 {
		t.Fatalf("hook fired %d times before Reset, want 1", stale)
	}

	tp.Reset()
	w2 := tp.Param(wv)
	y2 := ReLU(w2)
	tp.Backward(y2, ones(2, 2))
	if stale != 1 {
		t.Fatalf("stale hook re-fired after Reset (count %d)", stale)
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
