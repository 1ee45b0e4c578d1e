package autograd

import (
	"math"
	"math/rand"
	"testing"

	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// numericCheck compares the analytic gradient of scalarLoss wrt p against
// central differences. build must recompute the forward pass from p's
// current values and return the loss variable (1x1).
func numericCheck(t *testing.T, p *tensor.Dense, build func() (loss float64, run func() *tensor.Dense)) {
	t.Helper()
	_, run := build()
	grad := run()
	const eps = 1e-2
	for i := range p.V {
		orig := p.V[i]
		p.V[i] = orig + eps
		lp, _ := build()
		p.V[i] = orig - eps
		lm, _ := build()
		p.V[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.V[i])) > 1e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("grad[%d] = %g, numeric %g", i, grad.V[i], num)
		}
	}
}

// sumAll reduces a Var to a scalar loss by summing all entries: the seed
// gradient is all-ones.
func sumAll(v *tensor.Dense) float64 {
	var s float64
	for _, x := range v.V {
		s += float64(x)
	}
	return s
}

func ones(r, c int) *tensor.Dense {
	d := tensor.New(r, c)
	for i := range d.V {
		d.V[i] = 1
	}
	return d
}

func TestMatMulGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xv := tensor.Randn(3, 4, 1, rng)
	wv := tensor.Randn(4, 2, 1, rng)

	build := func() (float64, func() *tensor.Dense) {
		tp := NewTape()
		x := tp.Const(xv)
		w := tp.Param(wv)
		y := MatMul(x, w)
		return sumAll(y.Value), func() *tensor.Dense {
			tp.Backward(y, ones(3, 2))
			return w.Grad
		}
	}
	numericCheck(t, wv, build)
}

// TestMatMulRecycledSlabsNotZeroed pins that MatMul's output and gradients
// do not depend on the arena zeroing their slabs (newTensor skips it): with
// every recycled slab poisoned with NaN, a second iteration still matches a
// plain tape bit for bit.
func TestMatMulRecycledSlabsNotZeroed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xv := tensor.Randn(9, 13, 1, rng)
	wv := tensor.Randn(13, 10, 1, rng)
	for i := range xv.V { // ReLU-like zeros, so the kernels' skip paths run
		if i%3 == 0 {
			xv.V[i] = 0
		}
	}
	seed := tensor.Randn(9, 10, 1, rng)
	step := func(tp *Tape) (y, gx, gw *tensor.Dense) {
		x, w := tp.Param(xv), tp.Param(wv)
		out := MatMul(x, w)
		tp.Backward(out, seed)
		return out.Value, x.Grad, w.Grad
	}
	wantY, wantGX, wantGW := step(NewTape())

	tp := NewTapeArena(tensor.NewArena())
	step(tp)
	nan := float32(math.NaN())
	for _, d := range tp.owned {
		slab := d.V[:cap(d.V)]
		for i := range slab {
			slab[i] = nan
		}
	}
	tp.Reset()
	gotY, gotGX, gotGW := step(tp)
	if st := tp.Arena().Stats(); st.Hits == 0 {
		t.Fatal("second iteration recycled no slab: the test is vacuous")
	}
	for _, c := range []struct {
		name      string
		got, want *tensor.Dense
	}{{"y", gotY, wantY}, {"dx", gotGX, wantGX}, {"dw", gotGW, wantGW}} {
		for i := range c.want.V {
			if math.Float32bits(c.got.V[i]) != math.Float32bits(c.want.V[i]) {
				t.Fatalf("%s[%d] = %g on poisoned slabs, want %g", c.name, i, c.got.V[i], c.want.V[i])
			}
		}
	}
}

func TestChainedGradient(t *testing.T) {
	// y = ReLU(x*w + b) * w2, loss = sum(y): checks the whole tape replay.
	rng := rand.New(rand.NewSource(2))
	xv := tensor.Randn(5, 3, 1, rng)
	wv := tensor.Randn(3, 4, 1, rng)
	bv := tensor.Randn(1, 4, 1, rng)
	w2v := tensor.Randn(4, 2, 1, rng)

	for _, p := range []*tensor.Dense{wv, bv, w2v} {
		build := func() (float64, func() *tensor.Dense) {
			tp := NewTape()
			x := tp.Const(xv)
			w := tp.Param(wv)
			b := tp.Param(bv)
			w2 := tp.Param(w2v)
			h := ReLU(AddBias(MatMul(x, w), b))
			y := MatMul(h, w2)
			return sumAll(y.Value), func() *tensor.Dense {
				tp.Backward(y, ones(5, 2))
				switch p {
				case wv:
					return w.Grad
				case bv:
					return b.Grad
				default:
					return w2.Grad
				}
			}
		}
		numericCheck(t, p, build)
	}
}

func TestAddAndScaleGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	av := tensor.Randn(2, 3, 1, rng)
	bv := tensor.Randn(2, 3, 1, rng)
	build := func() (float64, func() *tensor.Dense) {
		tp := NewTape()
		a := tp.Param(av)
		b := tp.Param(bv)
		y := Scale(Add(a, b), 2.5)
		return sumAll(y.Value), func() *tensor.Dense {
			tp.Backward(y, ones(2, 3))
			return a.Grad
		}
	}
	numericCheck(t, av, build)
	// Analytic: dy/da = 2.5 everywhere.
	_, run := build()
	g := run()
	for i := range g.V {
		if g.V[i] != 2.5 {
			t.Fatalf("scale grad = %g", g.V[i])
		}
	}
}

func TestRowsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xv := tensor.Randn(5, 3, 1, rng)
	tp := NewTape()
	x := tp.Param(xv)
	n := 2
	y := Rows(x, &n)
	if y.Value.R != 2 || y.Value.C != 3 {
		t.Fatalf("rows shape %dx%d", y.Value.R, y.Value.C)
	}
	tp.Backward(y, ones(2, 3))
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			want := float32(0)
			if i < 2 {
				want = 1
			}
			if x.Grad.At(i, j) != want {
				t.Fatalf("rows grad(%d,%d) = %g, want %g", i, j, x.Grad.At(i, j), want)
			}
		}
	}
}

func TestConcatColsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	av := tensor.Randn(3, 2, 1, rng)
	bv := tensor.Randn(3, 4, 1, rng)
	tp := NewTape()
	a := tp.Param(av)
	b := tp.Param(bv)
	y := ConcatCols(a, b)
	if y.Value.C != 6 {
		t.Fatalf("concat cols = %d", y.Value.C)
	}
	for i := 0; i < 3; i++ {
		if y.Value.At(i, 0) != av.At(i, 0) || y.Value.At(i, 2) != bv.At(i, 0) {
			t.Fatal("concat values wrong")
		}
	}
	seed := tensor.New(3, 6)
	for i := range seed.V {
		seed.V[i] = float32(i)
	}
	tp.Backward(y, seed)
	if a.Grad.At(1, 1) != seed.At(1, 1) || b.Grad.At(2, 3) != seed.At(2, 5) {
		t.Fatal("concat gradient routed wrong")
	}
}

func TestDropoutGradientMatchesMask(t *testing.T) {
	xv := ones(4, 4)
	tp := NewTape()
	x := tp.Param(xv)
	y := Dropout(x, 0.5, xrand.New(6))
	tp.Backward(y, ones(4, 4))
	// Gradient equals the forward scaling: 0 where dropped, 2 where kept.
	for i := range y.Value.V {
		want := y.Value.V[i] // since input was all ones
		if x.Grad.V[i] != want {
			t.Fatalf("dropout grad[%d] = %g, want %g", i, x.Grad.V[i], want)
		}
	}
}

func TestConstGetsNoGradient(t *testing.T) {
	tp := NewTape()
	x := tp.Const(ones(2, 2))
	w := tp.Param(ones(2, 2))
	y := MatMul(x, w)
	tp.Backward(y, ones(2, 2))
	if x.Grad != nil {
		t.Error("const received a gradient")
	}
	if w.Grad == nil {
		t.Error("param missing gradient")
	}
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// y = w + w: dw = 2.
	tp := NewTape()
	w := tp.Param(ones(1, 2))
	y := Add(w, w)
	tp.Backward(y, ones(1, 2))
	if w.Grad.V[0] != 2 || w.Grad.V[1] != 2 {
		t.Fatalf("shared-use grad = %v, want 2s", w.Grad.V)
	}
}

// square is a custom op kernel for the tests: y = x^2, dy/dx = 2x.
type square struct{}

func (square) Label() string { return "square" }

func (square) Forward(r *Record) {
	x := r.In[0].Value
	out := r.Output(x.R, x.C, false)
	for i, v := range x.V {
		out.V[i] = v * v
	}
}

func (square) Backward(r *Record) {
	x := r.In[0]
	g := r.Out.tape.NewTensor(x.Value.R, x.Value.C)
	for i := range g.V {
		g.V[i] = 2 * x.Value.V[i] * r.Out.Grad.V[i]
	}
	x.AccumGrad(g)
}

func TestCustomOp(t *testing.T) {
	// A custom kernel recorded through Tape.Record.
	tp := NewTape()
	x := tp.Param(tensor.FromSlice(1, 3, []float32{2, -3, 4}))
	y := tp.Record(Record{Kernel: square{}, In: [2]*Var{x}})
	if want := []float32{4, 9, 16}; y.Value.V[0] != want[0] || y.Value.V[1] != want[1] || y.Value.V[2] != want[2] {
		t.Fatalf("custom forward = %v, want %v", y.Value.V, want)
	}
	tp.Backward(y, ones(1, 3))
	want := []float32{4, -6, 8}
	for i, w := range want {
		if x.Grad.V[i] != w {
			t.Fatalf("custom grad[%d] = %g, want %g", i, x.Grad.V[i], w)
		}
	}
}

func TestCrossTapePanics(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	a := t1.Param(ones(1, 1))
	b := t2.Param(ones(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("cross-tape op did not panic")
		}
	}()
	t1.Record(Record{Kernel: square{}, In: [2]*Var{a, b}})
}

func TestGatherRowsGradient(t *testing.T) {
	tp := NewTape()
	xv := tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	x := tp.Param(xv)
	y := GatherRows(x, []int{2, 0, 2}) // row 2 used twice
	if y.Value.At(0, 0) != 5 || y.Value.At(1, 1) != 2 || y.Value.At(2, 0) != 5 {
		t.Fatalf("gathered values wrong: %v", y.Value.V)
	}
	seed := tensor.FromSlice(3, 2, []float32{1, 1, 10, 10, 100, 100})
	tp.Backward(y, seed)
	// Row 2 accumulates both its uses: 1+100; row 0 gets 10; row 1 nothing.
	if x.Grad.At(2, 0) != 101 || x.Grad.At(0, 0) != 10 || x.Grad.At(1, 0) != 0 {
		t.Fatalf("gather-rows grad wrong: %v", x.Grad.V)
	}
}

func TestRowDotGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	av := tensor.Randn(4, 3, 1, rng)
	bv := tensor.Randn(4, 3, 1, rng)
	loss := func() float64 {
		tp := NewTape()
		d := RowDot(tp.Const(av), tp.Const(bv))
		var l float64
		for i, v := range d.Value.V {
			l += float64(v) * float64(i+1)
		}
		return l
	}
	tp := NewTape()
	a := tp.Param(av)
	b := tp.Param(bv)
	d := RowDot(a, b)
	seed := tensor.New(4, 1)
	for i := range seed.V {
		seed.V[i] = float32(i + 1)
	}
	tp.Backward(d, seed)
	const eps = 1e-3
	for _, tc := range []struct{ p, g *tensor.Dense }{{av, a.Grad}, {bv, b.Grad}} {
		for i := range tc.p.V {
			orig := tc.p.V[i]
			tc.p.V[i] = orig + eps
			lp := loss()
			tc.p.V[i] = orig - eps
			lm := loss()
			tc.p.V[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(tc.g.V[i])) > 1e-2*math.Max(1, math.Abs(num)) {
				t.Fatalf("rowdot grad[%d] = %g, numeric %g", i, tc.g.V[i], num)
			}
		}
	}
}

func TestSegmentMeanRowsGradient(t *testing.T) {
	tp := NewTape()
	xv := tensor.FromSlice(5, 2, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	x := tp.Param(xv)
	y := SegmentMeanRows(x, []int{0, 2, 2, 5}) // segments of 2, 0, 3 rows
	if y.Value.R != 3 {
		t.Fatalf("segments = %d", y.Value.R)
	}
	if y.Value.At(0, 0) != 2 || y.Value.At(0, 1) != 3 {
		t.Fatalf("segment 0 mean = %v", y.Value.Row(0))
	}
	if y.Value.At(1, 0) != 0 {
		t.Fatalf("empty segment mean = %v", y.Value.Row(1))
	}
	if y.Value.At(2, 0) != 7 {
		t.Fatalf("segment 2 mean = %v", y.Value.Row(2))
	}
	seed := tensor.FromSlice(3, 2, []float32{6, 6, 100, 100, 9, 9})
	tp.Backward(y, seed)
	// Segment 0 rows get 6/2=3; segment 2 rows get 9/3=3; empty segment's
	// gradient goes nowhere.
	for r := 0; r < 5; r++ {
		if x.Grad.At(r, 0) != 3 {
			t.Fatalf("segment-mean grad row %d = %g, want 3", r, x.Grad.At(r, 0))
		}
	}
}
