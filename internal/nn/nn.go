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
// gradients from the kept tape's variables.
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

// Apply computes x*W + b on the tape. The Linear prices its matmul
// (autograd.Cost): the forward GEMM is charged with the matmul's forward,
// and the dX and dW GEMMs when the backward pass reaches it — so backward
// compute lands on the device clock exactly when the gradient work happens,
// which is what lets gradient communication overlap with it. dX and dW are
// separate backward charges: they are independent GEMMs, and the whole-step
// scheduler places them on different streams. Row counts are read live, so
// a replayed step charges the GEMMs of its own batch size. dev may be nil
// for pure computation.
func (l *Linear) Apply(dev *sim.Device, x *autograd.Var) *autograd.Var {
	mm := autograd.MatMul(x, l.W.Var())
	x.Tape().Charge(mm, dev, l)
	return autograd.AddBias(mm, l.B.Var())
}

// ChargeForward charges the forward GEMM of the matmul record r.
func (l *Linear) ChargeForward(r *autograd.Record) {
	r.Dev.Gemm(r.Out.Value.R, l.Out, l.In, "linear.fwd")
}

// ChargeBackward charges the GEMM producing the gradient of r's input i:
// dX for the layer input, dW for the weight.
func (l *Linear) ChargeBackward(r *autograd.Record, i int) {
	if i == 0 {
		r.Dev.Gemm(r.Out.Value.R, l.In, l.Out, "linear.bwd.dx")
	} else {
		r.Dev.Gemm(l.In, l.Out, r.Out.Value.R, "linear.bwd.dw")
	}
}

// Elementwise prices a memory-bound elementwise op (ReLU, dropout) over its
// output's float32 elements (autograd.Cost): a read and a write of each
// forward, a gradient read and write backward. Its backward charge lands on
// the device clock when the gradient work actually happens — as Linear's
// backward GEMMs do — which sharpens gradient-bucket ready times for the
// overlap engine.
var Elementwise autograd.Cost = elementwise{}

type elementwise struct{}

func (elementwise) ChargeForward(r *autograd.Record) {
	r.Dev.Kernel(sim.KernelCost{StreamBytes: float64(8 * len(r.Out.Value.V)), Tag: "eltwise.fwd"})
}

func (elementwise) ChargeBackward(r *autograd.Record, _ int) {
	r.Dev.Kernel(sim.KernelCost{StreamBytes: float64(8 * len(r.Out.Value.V)), Tag: "eltwise.bwd"})
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
