// Package nn provides the neural-network training substrate: named
// trainable parameters, a Linear layer, the Adam optimizer, and helpers for
// charging dense-layer costs to a simulated device. GNN-specific layers
// live in internal/gnn; the sparse message-passing ops in internal/spops.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Param is one trainable tensor plus its optimizer state.
type Param struct {
	Name string
	W    *tensor.Dense

	// cur is this iteration's tape variable; its Grad is consumed by the
	// optimizer after Backward.
	cur *autograd.Var
	// Adam moments.
	m, v *tensor.Dense
}

// ParamSet is the collection of a model's parameters.
type ParamSet struct {
	list []*Param
}

// New registers a parameter with the given name and initial value.
func (s *ParamSet) New(name string, w *tensor.Dense) *Param {
	p := &Param{Name: name, W: w, m: tensor.New(w.R, w.C), v: tensor.New(w.R, w.C)}
	s.list = append(s.list, p)
	return p
}

// Params returns the registered parameters in registration order.
func (s *ParamSet) Params() []*Param { return s.list }

// NumElements returns the total trainable element count.
func (s *ParamSet) NumElements() int64 {
	var n int64
	for _, p := range s.list {
		n += int64(len(p.W.V))
	}
	return n
}

// Bind creates fresh tape variables for every parameter at the start of an
// iteration. It must be called once per tape before layers use Var. Bind
// mutates the parameters' current-tape binding, so goroutines that forward
// concurrently need their own ParamSet (see CopyFrom).
func (s *ParamSet) Bind(tp *autograd.Tape) {
	for _, p := range s.list {
		p.cur = tp.Param(p.W)
	}
}

// BoundVars appends the parameters' current tape variables to dst and
// returns it. The step-graph trainer snapshots these right after a capture
// iteration so replays can restore them with RebindVars.
func (s *ParamSet) BoundVars(dst []*autograd.Var) []*autograd.Var {
	for _, p := range s.list {
		dst = append(dst, p.Var())
	}
	return dst
}

// RebindVars restores a binding snapshot taken with BoundVars: parameter i
// becomes bound to vs[i]. After a graph replay the optimizer then reads its
// gradients from the captured tape's variables.
func (s *ParamSet) RebindVars(vs []*autograd.Var) {
	if len(vs) != len(s.list) {
		panic(fmt.Sprintf("nn: RebindVars with %d vars for %d params", len(vs), len(s.list)))
	}
	for i, p := range s.list {
		p.cur = vs[i]
	}
}

// CopyFrom copies src's parameter values into s, matching by registration
// order. It panics if the sets have different structure; optimizer state and
// tape bindings are not copied. It is how per-goroutine model replicas are
// refreshed from a shared master before a parallel forward pass.
func (s *ParamSet) CopyFrom(src *ParamSet) {
	if len(s.list) != len(src.list) {
		panic(fmt.Sprintf("nn: CopyFrom across different models: %d vs %d params", len(s.list), len(src.list)))
	}
	for i, p := range s.list {
		q := src.list[i]
		if p.W.R != q.W.R || p.W.C != q.W.C {
			panic(fmt.Sprintf("nn: CopyFrom shape mismatch at %s: %dx%d vs %dx%d", p.Name, p.W.R, p.W.C, q.W.R, q.W.C))
		}
		copy(p.W.V, q.W.V)
	}
}

// Var returns the parameter's variable on the currently bound tape.
func (p *Param) Var() *autograd.Var {
	if p.cur == nil {
		panic(fmt.Sprintf("nn: parameter %s used before Bind", p.Name))
	}
	return p.cur
}

// Grad returns this iteration's gradient, or nil if none flowed.
func (p *Param) Grad() *tensor.Dense {
	if p.cur == nil {
		return nil
	}
	return p.cur.Grad
}

// Linear is a dense layer y = x*W + b.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear creates a Glorot-initialized Linear registered in s.
func NewLinear(s *ParamSet, name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		In: in, Out: out,
		W: s.New(name+".W", tensor.Glorot(in, out, rng)),
		B: s.New(name+".B", tensor.New(1, out)),
	}
}

// Apply computes x*W + b on the tape, charging the forward GEMM to dev now
// and the two backward GEMMs at tape-replay time via backward hooks on the
// matmul node — so backward compute lands on the device clock exactly when
// the gradient work happens, which is what lets gradient communication
// overlap with it. The dX and dW charges are registered as separate
// targeted hooks (OnBackwardFor): they are independent GEMMs, and the
// whole-step scheduler exploits that by placing them on different streams.
// The forward charge is captured after the matmul step so it rides the
// matmul's DAG node on replays. The hooks are registered only on a matmul
// that needs a gradient: on any other node they could never fire. dev may be
// nil for pure computation.
func (l *Linear) Apply(dev *sim.Device, x *autograd.Var) *autograd.Var {
	tp := x.Tape()
	ChargeLinearForward(dev, x.Value.R, l.In, l.Out)
	wv := l.W.Var()
	mm := autograd.MatMul(x, wv)
	if dev != nil && tp.Capturing() {
		tp.Capture(func() { ChargeLinearForward(dev, x.Value.R, l.In, l.Out) })
	}
	if dev != nil && mm.NeedsGrad() {
		// Row count is read live so replayed iterations charge the GEMMs of
		// their own batch size.
		mm.OnBackwardFor(x, func() { ChargeLinearBackwardDX(dev, x.Value.R, l.In, l.Out) })
		mm.OnBackwardFor(wv, func() { ChargeLinearBackwardDW(dev, x.Value.R, l.In, l.Out) })
	}
	return autograd.AddBias(mm, l.B.Var())
}

// ChargeLinearForward charges dev the forward GEMM of a Linear of the given
// sizes. nil dev charges nothing.
func ChargeLinearForward(dev *sim.Device, rows, in, out int) {
	if dev == nil {
		return
	}
	dev.Gemm(rows, out, in, "linear.fwd")
}

// ChargeLinearBackwardDX charges dev the dX backward GEMM of a Linear of
// the given sizes. nil dev charges nothing.
func ChargeLinearBackwardDX(dev *sim.Device, rows, in, out int) {
	if dev == nil {
		return
	}
	dev.Gemm(rows, in, out, "linear.bwd.dx")
}

// ChargeLinearBackwardDW charges dev the dW backward GEMM of a Linear of
// the given sizes. nil dev charges nothing.
func ChargeLinearBackwardDW(dev *sim.Device, rows, in, out int) {
	if dev == nil {
		return
	}
	dev.Gemm(in, out, rows, "linear.bwd.dw")
}

// ChargeElementwiseForward charges dev the forward half of a memory-bound
// elementwise pass over n float32 elements (read + write), e.g. ReLU or
// dropout.
func ChargeElementwiseForward(dev *sim.Device, n int64) {
	if dev == nil {
		return
	}
	dev.Kernel(sim.KernelCost{StreamBytes: float64(4 * n * 2), Tag: "eltwise.fwd"})
}

// ChargeElementwiseBackward charges dev the backward half of an elementwise
// pass (gradient read + write). Layers hook it via OnBackwardFor so the cost
// lands on the device clock when the gradient work actually happens — the
// same replay-time charging Linear's backward GEMMs use — which sharpens
// gradient-bucket ready times for the overlap engine.
func ChargeElementwiseBackward(dev *sim.Device, n int64) {
	if dev == nil {
		return
	}
	dev.Kernel(sim.KernelCost{StreamBytes: float64(4 * n * 2), Tag: "eltwise.bwd"})
}

// Adam is the Adam optimizer over a ParamSet.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
}

// NewAdam returns Adam with the standard defaults and the given learning
// rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update using each parameter's current gradient and
// charges the (memory-bound) update kernels to dev. Parameters with no
// gradient this iteration are skipped.
func (a *Adam) Step(dev *sim.Device, s *ParamSet) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	k := tensor.AdamCoef{B1: b1, C1: 1 - b1, B2: b2, C2: 1 - b2, BC1: bc1, BC2: bc2, LR: a.LR, Eps: a.Eps}
	var touched int64
	for _, p := range s.Params() {
		g := p.Grad()
		if g == nil {
			continue
		}
		touched += int64(len(p.W.V))
		tensor.AdamStep(p.W.V, p.m.V, p.v.V, g.V, &k)
	}
	if dev != nil && touched > 0 {
		// m, v, w reads + writes and g read: ~7 arrays touched.
		dev.Kernel(sim.KernelCost{StreamBytes: float64(7 * 4 * touched), Tag: "adam"})
	}
}
