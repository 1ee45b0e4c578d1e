package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"wholegraph/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.V[i] != w {
			t.Fatalf("c[%d] = %g, want %g", i, c.V[i], w)
		}
	}
}

func naiveMatMul(a, b *Dense) *Dense {
	c := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			var s float64
			for k := 0; k < a.C; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(13, 17, 1, rng)
	b := Randn(17, 11, 1, rng)

	// The float32 summation order is defined (k ascending from +0), so the
	// three layouts of one product agree with the reference loop bit for bit.
	want := New(13, 11)
	refMatMulInto(want, a, b)
	exact := func(name string, got *Dense) {
		t.Helper()
		for i := range want.V {
			if math.Float32bits(got.V[i]) != math.Float32bits(want.V[i]) {
				t.Fatalf("%s[%d] = %g, want %g", name, i, got.V[i], want.V[i])
			}
		}
	}
	exact("MatMul", MatMul(a, b))
	got := New(13, 11)
	MatMulTInto(got, a, Transpose(b)) // a * (bT)T
	exact("MatMulT", got)
	got = New(13, 11)
	TMatMulInto(got, Transpose(a), b) // (aT)T * b
	exact("TMatMul", got)

	// Against float64 accumulation only rounding differs.
	wide := naiveMatMul(a, b)
	for i := range want.V {
		if !almostEq(float64(want.V[i]), float64(wide.V[i]), 1e-4) {
			t.Fatalf("MatMul[%d] = %g, float64 sum %g", i, want.V[i], wide.V[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		a := Randn(r, c, 1, rng)
		tt := Transpose(Transpose(a))
		if !a.SameShape(tt) {
			return false
		}
		for i := range a.V {
			if a.V[i] != tt.V[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElementwise(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, -2, 3, -4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	dst := New(2, 2)

	AddInto(dst, a, b)
	if dst.V[1] != 18 {
		t.Errorf("add: %v", dst.V)
	}
	MulInto(dst, a, b)
	if dst.V[3] != -160 {
		t.Errorf("mul: %v", dst.V)
	}
	ScaleInto(dst, a, -1)
	if dst.V[0] != -1 || dst.V[1] != 2 {
		t.Errorf("scale: %v", dst.V)
	}
	AccumInto(dst, a)
	if dst.V[0] != 0 {
		t.Errorf("accum: %v", dst.V)
	}

	bias := FromSlice(1, 2, []float32{100, 200})
	AddRowInto(dst, a, bias)
	if dst.V[0] != 101 || dst.V[3] != 196 {
		t.Errorf("addrow: %v", dst.V)
	}

	cs := New(1, 2)
	ColSumInto(cs, a)
	if cs.V[0] != 4 || cs.V[1] != -6 {
		t.Errorf("colsum: %v", cs.V)
	}

	if a.MaxAbs() != 4 {
		t.Errorf("maxabs = %g", a.MaxAbs())
	}
}

func TestReLU(t *testing.T) {
	a := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	dst := New(1, 4)
	ReLUInto(dst, a)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if dst.V[i] != w {
			t.Fatalf("relu[%d] = %g", i, dst.V[i])
		}
	}
	grad := FromSlice(1, 4, []float32{5, 6, 7, 8})
	g := New(1, 4)
	ReLUGradInto(g, a, grad)
	wantg := []float32{0, 0, 7, 0}
	for i, w := range wantg {
		if g.V[i] != w {
			t.Fatalf("relugrad[%d] = %g", i, g.V[i])
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	if LeakyReLU(2, 0.2) != 2 || LeakyReLU(-2, 0.2) != -0.4 {
		t.Error("leakyrelu values wrong")
	}
	if LeakyReLUGrad(2, 0.2) != 1 || LeakyReLUGrad(-2, 0.2) != 0.2 {
		t.Error("leakyrelu grad wrong")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(5, 9, 10, rng) // large magnitudes stress stability
	s := New(5, 9)
	LogSoftmaxInto(s, a)
	for i := 0; i < 5; i++ {
		var sum float64
		for _, lv := range s.Row(i) {
			v := math.Exp(float64(lv))
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %g", v)
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-5) {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestCrossEntropy(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := New(3, 4)
	labels := []int32{0, 3, -1}
	grad := New(3, 4)
	loss := CrossEntropy(logits, labels, grad)
	if !almostEq(loss, math.Log(4), 1e-6) {
		t.Fatalf("loss = %g, want ln4", loss)
	}
	// Unlabeled row has zero grad.
	for _, v := range grad.Row(2) {
		if v != 0 {
			t.Fatal("unlabeled row received gradient")
		}
	}
	// Gradient rows sum to ~0 and the label entry is negative.
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range grad.Row(i) {
			sum += float64(v)
		}
		if !almostEq(sum, 0, 1e-6) {
			t.Fatalf("grad row %d sums to %g", i, sum)
		}
		if grad.Row(i)[labels[i]] >= 0 {
			t.Fatal("label gradient not negative")
		}
	}
	// All-unlabeled batch.
	if l := CrossEntropy(logits, []int32{-1, -1, -1}, grad); l != 0 {
		t.Fatalf("all-unlabeled loss = %g", l)
	}
}

// refCrossEntropy is CrossEntropy as it was when it staged the log-softmax
// in a fresh matrix; the in-place version must reproduce its bits.
func refCrossEntropy(logits *Dense, labels []int32, grad *Dense) float64 {
	ls := New(logits.R, logits.C)
	LogSoftmaxInto(ls, logits)
	var loss float64
	n := 0
	for i, lab := range labels {
		if lab < 0 {
			continue
		}
		n++
		loss -= float64(ls.Row(i)[lab])
	}
	if n == 0 {
		if grad != nil {
			grad.Zero()
		}
		return 0
	}
	if grad != nil {
		inv := float32(1.0 / float64(n))
		for i, lab := range labels {
			gr := grad.Row(i)
			if lab < 0 {
				for j := range gr {
					gr[j] = 0
				}
				continue
			}
			lr := ls.Row(i)
			for j := range gr {
				gr[j] = float32(math.Exp(float64(lr[j]))) * inv
			}
			gr[lab] -= inv
		}
	}
	return loss / float64(n)
}

func TestCrossEntropyBitsAndAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	logits := Randn(37, 11, 4, rng)
	labels := make([]int32, logits.R)
	for i := range labels {
		labels[i] = int32(rng.Intn(logits.C+2)) - 2 // some rows unlabeled
		if labels[i] < 0 {
			labels[i] = -1
		}
	}
	wantGrad, grad := New(37, 11), New(37, 11)
	want := refCrossEntropy(logits, labels, wantGrad)
	for i := range grad.V {
		grad.V[i] = 7 // stale contents must not leak through
	}
	if got := CrossEntropy(logits, labels, grad); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("loss with grad = %v, want %v", got, want)
	}
	for i := range wantGrad.V {
		if math.Float32bits(grad.V[i]) != math.Float32bits(wantGrad.V[i]) {
			t.Fatalf("grad[%d] = %g, want %g", i, grad.V[i], wantGrad.V[i])
		}
	}
	if got := CrossEntropy(logits, labels, nil); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("loss without grad = %v, want %v", got, want)
	}
	for _, g := range []*Dense{grad, nil} {
		if n := testing.AllocsPerRun(20, func() { CrossEntropy(logits, labels, g) }); n != 0 {
			t.Errorf("CrossEntropy (grad %v) allocates %.0f times per call", g != nil, n)
		}
	}
}

func TestCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := Randn(4, 6, 1, rng)
	labels := []int32{1, 5, 0, 2}
	grad := New(4, 6)
	CrossEntropy(logits, labels, grad)
	const eps = 1e-3
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			orig := logits.At(i, j)
			logits.Set(i, j, orig+eps)
			lp := CrossEntropy(logits, labels, nil)
			logits.Set(i, j, orig-eps)
			lm := CrossEntropy(logits, labels, nil)
			logits.Set(i, j, orig)
			num := (lp - lm) / (2 * eps)
			if !almostEq(num, float64(grad.At(i, j)), 1e-3) {
				t.Fatalf("grad(%d,%d) = %g, numeric %g", i, j, grad.At(i, j), num)
			}
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	if a := Accuracy(logits, []int32{0, 1, 1}); !almostEq(a, 2.0/3, 1e-9) {
		t.Errorf("accuracy = %g", a)
	}
	if a := Accuracy(logits, []int32{-1, -1, -1}); a != 0 {
		t.Errorf("all-unlabeled accuracy = %g", a)
	}
}

func TestDropout(t *testing.T) {
	a := New(10, 10)
	for i := range a.V {
		a.V[i] = 1
	}
	dst, mask := New(10, 10), New(10, 10)
	DropoutInto(dst, a, mask, 0.5, xrand.New(9))
	zeros := 0
	for i, v := range dst.V {
		switch v {
		case 0:
			zeros++
			if mask.V[i] != 0 {
				t.Fatal("mask/value disagree")
			}
		case 2:
			if mask.V[i] != 2 {
				t.Fatal("mask/value disagree")
			}
		default:
			t.Fatalf("unexpected dropout value %g", v)
		}
	}
	if zeros < 25 || zeros > 75 {
		t.Errorf("dropout kept %d of 100 at p=0.5", 100-zeros)
	}
	// p=0 is identity with unit mask.
	DropoutInto(dst, a, mask, 0, nil)
	for i := range dst.V {
		if dst.V[i] != 1 || mask.V[i] != 1 {
			t.Fatal("p=0 dropout not identity")
		}
	}
}

func TestGlorotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := Glorot(100, 100, rng)
	var sum, sq float64
	for _, v := range w.V {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	mean := sum / float64(len(w.V))
	std := math.Sqrt(sq/float64(len(w.V)) - mean*mean)
	want := math.Sqrt(2.0 / 200)
	if math.Abs(std-want) > 0.01 {
		t.Errorf("glorot std = %g, want %g", std, want)
	}
}

func TestSetWorkersClamps(t *testing.T) {
	prev := SetWorkers(-3)
	if Workers() != 1 {
		t.Errorf("workers = %d, want clamp to 1", Workers())
	}
	SetWorkers(prev)
	if Workers() != prev {
		t.Errorf("workers = %d, want restored %d", Workers(), prev)
	}
}

func benchMatMul(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(5))
	x := Randn(256, 128, 1, rng)
	y := Randn(128, 128, 1, rng)
	prev := SetWorkers(workers)
	defer SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulSerial(b *testing.B)  { benchMatMul(b, 1) }
func BenchmarkMatMulPooled(b *testing.B)  { benchMatMul(b, runtime.NumCPU()) }
func BenchmarkMatMulPooled8(b *testing.B) { benchMatMul(b, 8) }

// TestResizeUninit: the un-zeroed reshape keeps reused capacity as it was
// (that is the saving, and why only full-overwrite destinations may use it),
// grows like Resize, and leaves Resize itself zeroing.
func TestResizeUninit(t *testing.T) {
	d := New(4, 3)
	for i := range d.V {
		d.V[i] = float32(i + 1)
	}
	base := &d.V[0]
	d.ResizeUninit(2, 5)
	if d.R != 2 || d.C != 5 || len(d.V) != 10 || &d.V[0] != base {
		t.Fatalf("reshape within capacity: %dx%d len %d, moved %v", d.R, d.C, len(d.V), &d.V[0] != base)
	}
	for i, v := range d.V {
		if v != float32(i+1) {
			t.Fatalf("elem %d = %g after an un-zeroed reshape, want the old %d", i, v, i+1)
		}
	}
	d.ResizeUninit(5, 5)
	if d.R != 5 || d.C != 5 || len(d.V) != 25 {
		t.Fatalf("growth: %dx%d len %d", d.R, d.C, len(d.V))
	}
	d.V[7] = 9
	d.Resize(3, 3)
	for i, v := range d.V {
		if v != 0 {
			t.Fatalf("elem %d = %g after Resize, want 0", i, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("negative shape did not panic")
		}
	}()
	d.ResizeUninit(-1, 2)
}
