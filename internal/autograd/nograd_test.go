package autograd

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// everyOp applies one of every built-in op to x ([4 x 3]), p ([3 x 3]) and
// the scalar s; their gradient needs decide which ops are recorded.
func everyOp(x, p, s *Var, rnd *xrand.Source) *Var {
	one, two := 1, 2
	h := ReLU(AddBias(MatMul(x, p), Rows(p, &one)))
	h = Scale(Dropout(h, 0.5, rnd), 0.5)
	h = ScaleByScalarPlusOne(Add(h, h), s)
	h = ConcatCols(Rows(h, &two), Rows(h, &two))
	h = GatherRows(h, []int{1, 0, 1})
	h = SegmentMeanRows(h, []int{0, 2, 3})
	return RowDot(h, h)
}

// TestOpsOverConstantsRecordNothing checks the value-only path: every op
// whose inputs need no gradient computes the same values as a recording
// tape, records no node, keeps no inputs and needs no gradient.
func TestOpsOverConstantsRecordNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xv := tensor.Randn(4, 3, 1, rng)
	pv := tensor.Randn(3, 3, 1, rng)
	sv := tensor.FromSlice(1, 1, []float32{0.25})

	rec := NewTape()
	want := everyOp(rec.Const(xv), rec.Param(pv), rec.Param(sv), xrand.New(2))
	if rec.Len() == 0 || !want.NeedsGrad() || len(want.Inputs()) != 2 {
		t.Fatalf("recording tape: %d nodes, needs grad %v, %d inputs", rec.Len(), want.NeedsGrad(), len(want.Inputs()))
	}

	tp := NewTape()
	got := everyOp(tp.Const(xv), tp.Const(pv), tp.Const(sv), xrand.New(2))
	if tp.Len() != 0 {
		t.Errorf("ops over constants recorded %d nodes", tp.Len())
	}
	for _, v := range tp.vars {
		if v.NeedsGrad() || len(v.Inputs()) != 0 || v.back != nil {
			t.Fatalf("value-only Var needs grad %v, has %d inputs, back set %v", v.NeedsGrad(), len(v.Inputs()), v.back != nil)
		}
	}
	sameBits(t, "value-only result", got.Value, want.Value)
}

// TestResetNoGradBindsConstants checks the mode's lifetime: ResetNoGrad
// turns Param into a constant until the next Reset, and a recording forward
// after that Reset gets its gradients again.
func TestResetNoGradBindsConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xv := tensor.Randn(5, 4, 1, rng)
	wv := tensor.Randn(4, 2, 1, rng)
	tp := NewTapeArena(tensor.NewArena())

	tp.ResetNoGrad()
	w := tp.Param(wv)
	y := MatMul(tp.Const(xv), w)
	if w.NeedsGrad() || y.NeedsGrad() || tp.Len() != 0 {
		t.Fatalf("no-grad tape: param needs grad %v, result %v, %d nodes", w.NeedsGrad(), y.NeedsGrad(), tp.Len())
	}
	noGrad := y.Value.Clone()

	tp.Reset()
	w = tp.Param(wv)
	y = MatMul(tp.Const(xv), w)
	sameBits(t, "recorded matmul", y.Value, noGrad)
	tp.Backward(y, ones(5, 2))
	if w.Grad == nil {
		t.Fatal("Reset did not leave no-grad mode: the parameter got no gradient")
	}
}

// TestNoGradModeRefusesBackward pins the fix for a silent no-op: every
// backward entry point, and BeginCapture, panics on a no-grad tape with a
// message naming the mode, instead of leaving every parameter gradient nil.
// ReplayBackward is Backward on a tape frozen by EndCapture: the replay of a
// captured backward pass refuses no-grad mode too.
func TestNoGradModeRefusesBackward(t *testing.T) {
	for _, c := range []struct {
		name, entry string
		frozen      bool
		call        func(tp *Tape, loss *Var, seed *tensor.Dense)
	}{
		{"Backward", "Backward", false, func(tp *Tape, loss *Var, seed *tensor.Dense) { tp.Backward(loss, seed) }},
		{"BackwardHooked", "BackwardHooked", false, func(tp *Tape, loss *Var, seed *tensor.Dense) {
			tp.BackwardHooked(loss, seed, nil, func(int) {})
		}},
		{"ReplayBackward", "Backward", true, func(tp *Tape, loss *Var, seed *tensor.Dense) { tp.Backward(loss, seed) }},
		{"BeginCapture", "BeginCapture", false, func(tp *Tape, _ *Var, _ *tensor.Dense) { tp.BeginCapture() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tp := NewTape()
			if c.frozen {
				tp.BeginCapture()
				tp.Backward(MatMul(tp.Const(ones(2, 2)), tp.Param(ones(2, 2))), ones(2, 2))
				tp.EndCapture()
			}
			tp.ResetNoGrad()
			loss := MatMul(tp.Const(ones(2, 2)), tp.Param(ones(2, 2)))
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.entry) || !strings.Contains(msg, "no-grad") {
					t.Fatalf("%s on a no-grad tape: recovered %q, want a panic naming the call and the mode", c.name, msg)
				}
			}()
			c.call(tp, loss, ones(2, 2))
		})
	}
}

// TestOpKeepsInputsInline checks that a recorded node holds its inputs
// itself — the caller's slice is not retained — that recycled nodes pin
// nothing after Reset, and that Op rejects more inputs than a node holds.
func TestOpKeepsInputsInline(t *testing.T) {
	tp := NewTapeArena(tensor.NewArena())
	a, b := tp.Param(ones(2, 2)), tp.Param(ones(2, 2))
	ins := []*Var{a, b}
	y := tp.Op(ones(2, 2), ins, func(*Var) {})
	ins[0], ins[1] = nil, nil
	if got := y.Inputs(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Inputs() = %v, want [a b] independent of the caller's slice", got)
	}
	tp.Reset()
	for _, v := range tp.free {
		if v.in != [2]*Var{} || v.nin != 0 || len(v.Inputs()) != 0 {
			t.Fatal("a recycled node still references its inputs")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("an op with three inputs did not panic")
		}
	}()
	c := tp.Param(ones(1, 1))
	tp.Op(ones(1, 1), []*Var{c, c, c}, func(*Var) {})
}

func sameBits(t *testing.T, name string, got, want *tensor.Dense) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.V {
		if math.Float32bits(got.V[i]) != math.Float32bits(want.V[i]) {
			t.Fatalf("%s[%d] = %g, want %g", name, i, got.V[i], want.V[i])
		}
	}
}
