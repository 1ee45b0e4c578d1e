package nn

import (
	"math"
	"math/rand"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

func TestLinearLearnsRegression(t *testing.T) {
	// Fit y = x*Wtrue with a single Linear via Adam; loss must collapse.
	rng := rand.New(rand.NewSource(1))
	wTrue := tensor.Randn(4, 2, 1, rng)
	x := tensor.Randn(64, 4, 1, rng)
	y := tensor.MatMul(x, wTrue)

	var ps ParamSet
	lin := NewLinear(&ps, "fit", 4, 2, rng)
	opt := NewAdam(0.05)

	var first, last float64
	for it := 0; it < 300; it++ {
		tp := autograd.NewTape()
		ps.Bind(tp)
		pred := lin.Apply(nil, tp.Const(x))
		// MSE loss gradient: 2*(pred-y)/n.
		diff := tensor.New(64, 2)
		var loss float64
		for i := range diff.V {
			d := pred.Value.V[i] - y.V[i]
			diff.V[i] = 2 * d / float32(len(diff.V))
			loss += float64(d) * float64(d)
		}
		loss /= float64(len(diff.V))
		if it == 0 {
			first = loss
		}
		last = loss
		tp.Backward(pred, diff)
		opt.Step(nil, &ps)
	}
	if last > first/100 {
		t.Errorf("loss did not collapse: first %g last %g", first, last)
	}
}

func TestParamSetBookkeeping(t *testing.T) {
	var ps ParamSet
	rng := rand.New(rand.NewSource(2))
	NewLinear(&ps, "a", 3, 5, rng)
	NewLinear(&ps, "b", 5, 2, rng)
	if len(ps.Params()) != 4 {
		t.Fatalf("params = %d, want 4 (2 W + 2 B)", len(ps.Params()))
	}
	if ps.NumElements() != 3*5+5+5*2+2 {
		t.Fatalf("elements = %d", ps.NumElements())
	}
	names := map[string]bool{}
	for _, p := range ps.Params() {
		names[p.Name] = true
	}
	for _, want := range []string{"a.W", "a.B", "b.W", "b.B"} {
		if !names[want] {
			t.Errorf("missing param %s", want)
		}
	}
}

func TestVarPanicsBeforeBind(t *testing.T) {
	var ps ParamSet
	p := ps.New("w", tensor.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("Var before Bind did not panic")
		}
	}()
	p.Var()
}

func TestAdamSkipsGradlessParams(t *testing.T) {
	var ps ParamSet
	rng := rand.New(rand.NewSource(3))
	used := NewLinear(&ps, "used", 2, 2, rng)
	unused := NewLinear(&ps, "unused", 2, 2, rng)
	before := unused.W.W.Clone()

	tp := autograd.NewTape()
	ps.Bind(tp)
	x := tp.Const(tensor.Randn(4, 2, 1, rng))
	y := used.Apply(nil, x)
	seed := tensor.New(4, 2)
	for i := range seed.V {
		seed.V[i] = 1
	}
	tp.Backward(y, seed)
	NewAdam(0.1).Step(nil, &ps)

	for i := range before.V {
		if unused.W.W.V[i] != before.V[i] {
			t.Fatal("unused parameter was updated")
		}
	}
	if used.W.Grad() == nil {
		t.Fatal("used parameter has no grad")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = sum(w^2) by feeding grad = 2w directly.
	var ps ParamSet
	w := ps.New("w", tensor.FromSlice(1, 3, []float32{5, -7, 3}))
	opt := NewAdam(0.1)
	for it := 0; it < 500; it++ {
		tp := autograd.NewTape()
		ps.Bind(tp)
		g := tensor.New(1, 3)
		for i, v := range w.W.V {
			g.V[i] = 2 * v
		}
		w.Var().AccumGrad(g)
		opt.Step(nil, &ps)
	}
	for i, v := range w.W.V {
		if math.Abs(float64(v)) > 1e-2 {
			t.Errorf("w[%d] = %g, want ~0", i, v)
		}
	}
}

// TestChargingAdvancesDevice checks the Costs a layer prices its ops with:
// a Linear charges its forward GEMM when applied and its dX and dW GEMMs
// when the backward pass reaches it, an elementwise op one pass each way,
// and without a device nothing is charged.
func TestChargingAdvancesDevice(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	d := m.Devs[0]
	var ps ParamSet
	l := NewLinear(&ps, "l", 256, 256, rand.New(rand.NewSource(1)))
	tp := autograd.NewTape()
	ps.Bind(tp)
	y := l.Apply(d, tp.Const(tensor.New(1024, 256)))
	if d.Stats.Kernels != 1 {
		t.Errorf("Linear forward: %d kernels", d.Stats.Kernels)
	}
	tp.Backward(y, tensor.New(1024, 256))
	if d.Now() == 0 || d.Stats.Kernels != 3 {
		t.Errorf("Linear charges: now=%g kernels=%d", d.Now(), d.Stats.Kernels)
	}
	t0 := d.Now()
	tp.Reset()
	x := tp.Param(tensor.New(1024, 1024))
	r := autograd.ReLU(x)
	tp.Charge(r, d, Elementwise)
	tp.Backward(r, tensor.New(1024, 1024))
	if d.Now() <= t0 || d.Stats.Kernels != 5 {
		t.Errorf("elementwise charges: clock %g after %g, %d kernels", d.Now(), t0, d.Stats.Kernels)
	}
	// nil device is a no-op.
	tp.Reset()
	ps.Bind(tp)
	tp.Backward(l.Apply(nil, tp.Const(tensor.New(10, 256))), tensor.New(10, 256))
}

func TestAdamChargesDevice(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	d := m.Devs[0]
	var ps ParamSet
	w := ps.New("w", tensor.New(10, 10))
	tp := autograd.NewTape()
	ps.Bind(tp)
	w.Var().AccumGrad(tensor.New(10, 10))
	NewAdam(0.1).Step(d, &ps)
	if d.Now() == 0 {
		t.Error("Adam step did not charge device")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a ParamSet
	NewLinear(&a, "l1", 4, 8, rng)
	NewLinear(&a, "l2", 8, 3, rng)
	path := t.TempDir() + "/model.ckpt"
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// A fresh model with a different seed must load to identical weights.
	rng2 := rand.New(rand.NewSource(99))
	var b ParamSet
	NewLinear(&b, "l1", 4, 8, rng2)
	NewLinear(&b, "l2", 8, 3, rng2)
	if err := b.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		q := b.Params()[i]
		if p.Name != q.Name {
			t.Fatalf("param order changed: %s vs %s", p.Name, q.Name)
		}
		for j := range p.W.V {
			if p.W.V[j] != q.W.V[j] {
				t.Fatalf("param %s[%d] differs after load", p.Name, j)
			}
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var a ParamSet
	NewLinear(&a, "l1", 4, 8, rng)
	path := t.TempDir() + "/model.ckpt"
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Wrong shape.
	var b ParamSet
	NewLinear(&b, "l1", 4, 9, rng)
	if err := b.LoadFile(path); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Wrong name.
	var c ParamSet
	NewLinear(&c, "other", 4, 8, rng)
	if err := c.LoadFile(path); err == nil {
		t.Error("name mismatch accepted")
	}
	// Wrong parameter count.
	var d ParamSet
	NewLinear(&d, "l1", 4, 8, rng)
	NewLinear(&d, "l2", 8, 3, rng)
	if err := d.LoadFile(path); err == nil {
		t.Error("count mismatch accepted")
	}
}
