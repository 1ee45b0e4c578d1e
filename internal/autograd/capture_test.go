package autograd

import (
	"math"
	"testing"

	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

func fillSeq(d *tensor.Dense, base float32) {
	for i := range d.V {
		d.V[i] = base + float32(i%7) - 3
	}
}

// buildChain runs a small op chain (matmul, bias, relu, row slice) on tp
// over the shared buffers and returns the output plus the parameter vars.
func buildChain(tp *Tape, x, w, b *tensor.Dense, rows *int) (*Var, *Var, *Var) {
	xv := tp.Const(x)
	wv := tp.Param(w)
	bv := tp.Param(b)
	h := AddBias(MatMul(xv, wv), bv)
	return Rows(ReLU(h), rows), wv, bv
}

// TestCaptureReplayDynamicShapes records an op chain once and keeps the
// tape, then changes both the input values and the row counts and replays:
// values and parameter gradients must be bit-identical to a fresh eager
// recompute on the same buffers.
func TestCaptureReplayDynamicShapes(t *testing.T) {
	x := tensor.New(5, 4)
	w := tensor.New(4, 3)
	b := tensor.New(1, 3)
	fillSeq(x, 0.5)
	fillSeq(w, -0.25)
	fillSeq(b, 0.125)
	targets := 4

	ct := NewTapeArena(tensor.NewArena())
	out, wv, bv := buildChain(ct, x, w, b, &targets)
	seed := tensor.New(out.Value.R, out.Value.C)
	for i := range seed.V {
		seed.V[i] = 1
	}
	ct.Backward(out, seed)
	if ct.Len() != 4 {
		t.Fatalf("the chain recorded %d ops, want 4", ct.Len())
	}

	// Shrink the batch and change every input value.
	x.Resize(3, 4)
	fillSeq(x, 2)
	fillSeq(w, 0.75)
	targets = 2

	ct.Replay()
	seed.Resize(out.Value.R, out.Value.C)
	for i := range seed.V {
		seed.V[i] = 1
	}
	ct.Backward(out, seed)

	et := NewTape()
	eOut, eWv, eBv := buildChain(et, x, w, b, &targets)
	eSeed := tensor.New(eOut.Value.R, eOut.Value.C)
	for i := range eSeed.V {
		eSeed.V[i] = 1
	}
	et.Backward(eOut, eSeed)

	if out.Value.R != eOut.Value.R || out.Value.C != eOut.Value.C {
		t.Fatalf("replay shape %dx%d vs eager %dx%d", out.Value.R, out.Value.C, eOut.Value.R, eOut.Value.C)
	}
	for i := range eOut.Value.V {
		if out.Value.V[i] != eOut.Value.V[i] {
			t.Fatalf("output elem %d: replay %v eager %v", i, out.Value.V[i], eOut.Value.V[i])
		}
	}
	for i := range eWv.Grad.V {
		if wv.Grad.V[i] != eWv.Grad.V[i] {
			t.Fatalf("w grad elem %d: replay %v eager %v", i, wv.Grad.V[i], eWv.Grad.V[i])
		}
	}
	for i := range eBv.Grad.V {
		if bv.Grad.V[i] != eBv.Grad.V[i] {
			t.Fatalf("b grad elem %d: replay %v eager %v", i, bv.Grad.V[i], eBv.Grad.V[i])
		}
	}
}

// TestCaptureReplayDropoutRNG checks the RNG contract of replayed dropout:
// a replay draws the next values from the persistent RNG stream, exactly
// like a second eager iteration would, so graph and eager stay on the same
// trajectory.
func TestCaptureReplayDropoutRNG(t *testing.T) {
	x := tensor.New(6, 3)
	fillSeq(x, 1)

	run := func(tp *Tape, src *xrand.Source) *Var {
		return Dropout(tp.Const(x), 0.5, src)
	}

	// Kept tape: the recording draws 1..n, the replay n+1..2n.
	rngG := xrand.New(7)
	ct := NewTape()
	out := run(ct, rngG)
	seed := tensor.New(out.Value.R, out.Value.C)
	for i := range seed.V {
		seed.V[i] = 1
	}
	ct.Backward(out, seed)
	ct.Replay()
	ct.Backward(out, seed)

	// Eager path: two iterations off the same persistent stream.
	rngE := xrand.New(7)
	run(NewTape(), rngE)
	eOut := run(NewTape(), rngE)

	for i := range eOut.Value.V {
		if out.Value.V[i] != eOut.Value.V[i] {
			t.Fatalf("elem %d: replay %v, second eager iteration %v", i, out.Value.V[i], eOut.Value.V[i])
		}
	}
}

// TestReplaySteadyStateAllocs checks that a warmed replay of a kept arena
// tape (forward + backward) performs no per-iteration tape or tensor
// allocation: Replay hands the last backward's gradient buffers back to the
// arena for the next one, and the matmul kernels' dispatch allocates
// nothing.
func TestReplaySteadyStateAllocs(t *testing.T) {
	x := tensor.New(5, 4)
	w := tensor.New(4, 3)
	b := tensor.New(1, 3)
	fillSeq(x, 0.5)
	fillSeq(w, -0.25)
	targets := 4

	ct := NewTapeArena(tensor.NewArena())
	out, _, _ := buildChain(ct, x, w, b, &targets)
	seed := tensor.New(out.Value.R, out.Value.C)
	ct.Backward(out, seed)
	ct.Replay()
	ct.Backward(out, seed)

	replay := testing.AllocsPerRun(10, func() {
		ct.Replay()
		ct.Backward(out, seed)
	})
	eager := testing.AllocsPerRun(10, func() {
		et := NewTape()
		eOut, _, _ := buildChain(et, x, w, b, &targets)
		eSeed := tensor.New(eOut.Value.R, eOut.Value.C)
		et.Backward(eOut, eSeed)
	})
	t.Logf("allocs per iteration: replay %.1f, eager %.1f", replay, eager)
	if replay != 0 {
		t.Errorf("steady-state replay allocates %.1f times per iteration, want 0", replay)
	}
	if replay >= eager {
		t.Errorf("replay allocations %.1f not below eager tape rebuild %.1f", replay, eager)
	}
}

// TestReplayOverwritesUnzeroedBuffers pins the replay paths that skip the
// zeroing reshape (the forwards of the ops whose kernel sets every element,
// and a replayed backward's matrix products on recycled arena slabs): with
// every tensor of a kept tape — op outputs, masks, gradient buffers —
// poisoned with NaN over its whole capacity, a replay at a smaller row count
// still matches a fresh eager pass bit for bit, values and gradients.
func TestReplayOverwritesUnzeroedBuffers(t *testing.T) {
	x := tensor.New(6, 4)
	w := tensor.New(4, 3)
	b := tensor.New(1, 3)
	eps := tensor.New(1, 1)
	fillSeq(x, 0.5)
	fillSeq(w, -0.25)
	fillSeq(b, 0.125)
	eps.V[0] = 0.25

	rnd := xrand.New(37) // replayable uniform stream: Seed(37) restarts it
	// One of every op whose forward reshapes without zeroing.
	chain := func(tp *Tape) (out *Var, params []*Var) {
		xv, wv, bv, ev := tp.Param(x), tp.Param(w), tp.Param(b), tp.Param(eps)
		h := ReLU(AddBias(MatMul(xv, wv), bv))
		h = Scale(Dropout(h, 0.5, rnd), 0.5)
		h = ScaleByScalarPlusOne(Add(h, h), ev)
		return ConcatCols(h, h), []*Var{xv, wv, bv, ev}
	}
	seedFor := func(v *Var) *tensor.Dense {
		s := tensor.New(v.Value.R, v.Value.C)
		fillSeq(s, 1)
		return s
	}

	ct := NewTapeArena(tensor.NewArena())
	out, params := chain(ct)
	ct.Backward(out, seedFor(out))

	nan := float32(math.NaN())
	poison := func(d *tensor.Dense) {
		v := d.V[:cap(d.V)]
		for i := range v {
			v[i] = nan
		}
	}
	for _, d := range ct.owned { // every output, mask and gradient buffer
		poison(d)
	}

	x.Resize(3, 4)
	fillSeq(x, 2)
	fillSeq(w, 0.75)
	rnd.Seed(37)
	ct.Replay()
	ct.Backward(out, seedFor(out))

	rnd.Seed(37)
	et := NewTape()
	eOut, eParams := chain(et)
	et.Backward(eOut, seedFor(eOut))

	same := func(name string, got, want *tensor.Dense) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s: replay %dx%d, eager %dx%d", name, got.R, got.C, want.R, want.C)
		}
		for i := range want.V {
			if math.Float32bits(got.V[i]) != math.Float32bits(want.V[i]) {
				t.Fatalf("%s[%d] = %g on poisoned buffers, eager %g", name, i, got.V[i], want.V[i])
			}
		}
	}
	same("out", out.Value, eOut.Value)
	for i, name := range []string{"dx", "dw", "db", "deps"} {
		same(name, params[i].Grad, eParams[i].Grad)
	}
}
