package spops

import (
	"math"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Agg selects the aggregation of SpMM.
type Agg int

const (
	// AggSum sums neighbor messages.
	AggSum Agg = iota
	// AggMean averages them over each target's sampled degree.
	AggMean
)

// SpMM computes the message-passing aggregation
//
//	out[t] = norm_t * sum over edges e=(t<-s) of w_e * x[s]
//
// where norm_t is 1 (AggSum) or 1/deg(t) (AggMean) and w is an optional
// [E x 1] edge-weight variable (nil means all ones). Gradients flow to x
// and w. The real computation is performed by the selected backend
// (BackendPyG genuinely materializes the [E x d] message buffer); the cost
// of the forward and backward kernels is charged to dev (nil to skip).
func SpMM(dev *sim.Device, be Backend, g *SubCSR, x *autograd.Var, w *autograd.Var, agg Agg) *autograd.Var {
	if x.Value.R != g.NumNodes {
		panic("spops: feature rows != sub-graph nodes")
	}
	if w != nil && (w.Value.R != int(g.NumEdges()) || w.Value.C != 1) {
		panic("spops: edge weight shape mismatch")
	}
	if be != BackendDGL && be != BackendPyG {
		be = BackendNative
	}
	k := &spmmKernels[be][0]
	if agg == AggMean {
		k = &spmmKernels[be][1]
	}
	return x.Tape().Record(autograd.Record{Kernel: k, In: [2]*autograd.Var{x, w}, Dev: dev, Arg: g})
}

// spmm is the SpMM kernel of one backend and aggregation. Its record reads
// the block live (the same SubCSR, its fields rebuilt per batch), so norms,
// shapes and charges track the batch in front of a replay; Aux[0] holds the
// per-target norms and, under BackendPyG, Aux[1] the [E x d] messages.
type spmm struct {
	be  Backend
	agg Agg
}

// spmmKernels holds every spmm, so that a record points at a static one.
var spmmKernels = [3][2]spmm{
	{{BackendNative, AggSum}, {BackendNative, AggMean}},
	{{BackendDGL, AggSum}, {BackendDGL, AggMean}},
	{{BackendPyG, AggSum}, {BackendPyG, AggMean}},
}

func (*spmm) Label() string { return "spmm" }

func (k *spmm) Forward(r *autograd.Record) {
	g, x, d := r.Arg.(*SubCSR), r.In[0].Value, r.In[0].Value.C
	norm := r.Buffer(0, g.NumTargets, 1, false)
	spmmNorms(g, k.agg, norm.V)
	out := r.Output(g.NumTargets, d, true)
	var msgs *tensor.Dense
	if k.be == BackendPyG {
		msgs = r.Buffer(1, int(g.NumEdges()), d, true)
	}
	spmmRun(k.be, g, x, r.In[1], norm.V, msgs, out)
	chargeSpMMForward(r.Dev, k.be, g, d)
}

func (k *spmm) Backward(r *autograd.Record) {
	g, x, w, norm := r.Arg.(*SubCSR), r.In[0], r.In[1], r.Aux[0].V
	tp, grad, d := x.Tape(), r.Out.Grad, x.Value.C
	if x.NeedsGrad() {
		gx := tp.NewTensor(g.NumNodes, d)
		for t := 0; t < g.NumTargets; t++ {
			gr := grad.Row(t)
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				we := norm[t] * staticWeight(g, e)
				if w != nil {
					we *= w.Value.V[e]
				}
				tensor.Axpy(gx.Row(int(g.Col[e])), gr, we)
			}
		}
		chargeSpMMBackwardDX(r.Dev, k.be, g, d)
		x.AccumGrad(gx)
	}
	if w != nil && w.NeedsGrad() {
		gw := tp.NewTensor(int(g.NumEdges()), 1)
		for t := 0; t < g.NumTargets; t++ {
			gr := grad.Row(t)
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				src := x.Value.Row(int(g.Col[e]))
				var dot float32
				for j, gv := range gr {
					dot += gv * src[j]
				}
				gw.V[e] = norm[t] * staticWeight(g, e) * dot
			}
		}
		chargeSDDMM(r.Dev, g, d)
		w.AccumGrad(gw)
	}
}

// staticWeight is the static weight of sampled edge e of g (1 without
// EdgeW).
func staticWeight(g *SubCSR, e int64) float32 {
	if g.EdgeW == nil {
		return 1
	}
	return g.EdgeW[e]
}

// spmmNorms fills norm[t] for every target of g: 1 for AggSum, the inverse
// (weighted) degree for AggMean. norm must have length >= g.NumTargets.
func spmmNorms(g *SubCSR, agg Agg, norm []float32) {
	for t := 0; t < g.NumTargets; t++ {
		norm[t] = 1
		if agg != AggMean {
			continue
		}
		if g.EdgeW != nil {
			// Weighted mean: normalize by the static weight sum.
			var sum float32
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				sum += g.EdgeW[e]
			}
			if sum != 0 {
				norm[t] = 1 / sum
			}
		} else if deg := g.RowPtr[t+1] - g.RowPtr[t]; deg > 0 {
			norm[t] = 1 / float32(deg)
		}
	}
}

// spmmRun executes the aggregation math of SpMM into out (which must be
// zeroed, [g.NumTargets x d]): the fused CSR kernel by default, or the
// materialized per-edge message path for BackendPyG (msgs non-nil,
// [E x d]).
func spmmRun(be Backend, g *SubCSR, xVal *tensor.Dense, w *autograd.Var, norm []float32, msgs, out *tensor.Dense) {
	switch be {
	case BackendPyG:
		// Materialize per-edge messages, then segment-reduce.
		for t := 0; t < g.NumTargets; t++ {
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				src := xVal.Row(int(g.Col[e]))
				dst := msgs.Row(int(e))
				we := staticWeight(g, e)
				if w != nil {
					we *= w.Value.V[e]
				}
				for j, v := range src {
					dst[j] = we * v
				}
			}
		}
		for t := 0; t < g.NumTargets; t++ {
			or := out.Row(t)
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				mr := msgs.Row(int(e))
				for j, v := range mr {
					or[j] += v
				}
			}
			for j := range or {
				or[j] *= norm[t]
			}
		}
	default:
		// Fused CSR kernel: each target row's edges, in edge order, through
		// the dense tile's one-row form, a stack chunk of coefficients at a
		// time (AxpyRows accumulates into the row, so chunking keeps the
		// order).
		var we [64]float32
		for t := 0; t < g.NumTargets; t++ {
			or := out.Row(t)
			for lo := g.RowPtr[t]; lo < g.RowPtr[t+1]; lo += int64(len(we)) {
				hi := min(lo+int64(len(we)), g.RowPtr[t+1])
				for e := lo; e < hi; e++ {
					c := norm[t] * staticWeight(g, e)
					if w != nil {
						c *= w.Value.V[e]
					}
					we[e-lo] = c
				}
				tensor.AxpyRows(or, xVal, g.Col[lo:hi], we[:hi-lo])
			}
		}
	}
}

// EdgeScore computes per-edge attention inputs score_e = sl[t] + sr[s] for
// every sampled edge e=(t<-s), a g-SDDMM pattern. sl is [NumTargets x 1],
// sr is [NumNodes x 1]; the result is [E x 1].
func EdgeScore(dev *sim.Device, g *SubCSR, sl, sr *autograd.Var) *autograd.Var {
	if sl.Value.R != g.NumTargets || sl.Value.C != 1 {
		panic("spops: sl shape mismatch")
	}
	if sr.Value.R != g.NumNodes || sr.Value.C != 1 {
		panic("spops: sr shape mismatch")
	}
	return sl.Tape().Record(autograd.Record{Kernel: edgeScore{}, In: [2]*autograd.Var{sl, sr}, Dev: dev, Arg: g})
}

type edgeScore struct{}

func (edgeScore) Label() string { return "sddmm" }

func (edgeScore) Forward(r *autograd.Record) {
	g, sl, sr := r.Arg.(*SubCSR), r.In[0].Value, r.In[1].Value
	out := r.Output(int(g.NumEdges()), 1, false)
	for t := 0; t < g.NumTargets; t++ {
		for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
			out.V[e] = sl.V[t] + sr.V[g.Col[e]]
		}
	}
	chargeSDDMM(r.Dev, g, 1)
}

func (edgeScore) Backward(r *autograd.Record) {
	g, sl, sr, grad := r.Arg.(*SubCSR), r.In[0], r.In[1], r.Out.Grad
	if sl.NeedsGrad() {
		gl := sl.Tape().NewTensor(g.NumTargets, 1)
		for t := 0; t < g.NumTargets; t++ {
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				gl.V[t] += grad.V[e]
			}
		}
		sl.AccumGrad(gl)
	}
	if sr.NeedsGrad() {
		gr := sr.Tape().NewTensor(g.NumNodes, 1)
		for t := 0; t < g.NumTargets; t++ {
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				gr.V[g.Col[e]] += grad.V[e]
			}
		}
		sr.AccumGrad(gr)
	}
	chargeSDDMM(r.Dev, g, 1)
}

// EdgeLeakyReLU applies LeakyReLU elementwise to an edge vector.
func EdgeLeakyReLU(dev *sim.Device, x *autograd.Var, slope float32) *autograd.Var {
	return x.Tape().Record(autograd.Record{Kernel: leakyReLU{}, In: [2]*autograd.Var{x}, Dev: dev, F: slope})
}

type leakyReLU struct{}

func (leakyReLU) Label() string { return "leakyrelu" }

func (leakyReLU) Forward(r *autograd.Record) {
	x := r.In[0].Value
	out := r.Output(x.R, x.C, false)
	for i, v := range x.V {
		out.V[i] = tensor.LeakyReLU(v, r.F)
	}
	if r.Dev != nil {
		r.Dev.Kernel(sim.KernelCost{StreamBytes: float64(8 * len(x.V)), Tag: "leakyrelu"})
	}
}

func (leakyReLU) Backward(r *autograd.Record) {
	x := r.In[0]
	gx := x.Tape().NewTensor(x.Value.R, x.Value.C)
	for i, xv := range x.Value.V {
		gx.V[i] = tensor.LeakyReLUGrad(xv, r.F) * r.Out.Grad.V[i]
	}
	x.AccumGrad(gx)
}

// SegmentSoftmax normalizes the edge scores of each target's segment to a
// probability distribution (the attention softmax of GAT).
func SegmentSoftmax(dev *sim.Device, g *SubCSR, e *autograd.Var) *autograd.Var {
	if e.Value.R != int(g.NumEdges()) || e.Value.C != 1 {
		panic("spops: segment softmax shape mismatch")
	}
	return e.Tape().Record(autograd.Record{Kernel: segmentSoftmax{}, In: [2]*autograd.Var{e}, Dev: dev, Arg: g})
}

type segmentSoftmax struct{}

func (segmentSoftmax) Label() string { return "segsoftmax" }

func (segmentSoftmax) Forward(r *autograd.Record) {
	g, e := r.Arg.(*SubCSR), r.In[0].Value
	out := r.Output(e.R, 1, true) // edges of empty segments stay zero
	for t := 0; t < g.NumTargets; t++ {
		lo, hi := g.RowPtr[t], g.RowPtr[t+1]
		if lo == hi {
			continue
		}
		maxv := e.V[lo]
		for i := lo + 1; i < hi; i++ {
			if e.V[i] > maxv {
				maxv = e.V[i]
			}
		}
		var sum float64
		for i := lo; i < hi; i++ {
			sum += math.Exp(float64(e.V[i] - maxv))
		}
		for i := lo; i < hi; i++ {
			out.V[i] = float32(math.Exp(float64(e.V[i]-maxv)) / sum)
		}
	}
	if r.Dev != nil {
		r.Dev.Kernel(sim.KernelCost{StreamBytes: float64(4 * 4 * e.R), Tag: "segsoftmax"})
	}
}

func (segmentSoftmax) Backward(r *autograd.Record) {
	g, e, out, grad := r.Arg.(*SubCSR), r.In[0], r.Out.Value, r.Out.Grad
	ge := e.Tape().NewTensor(e.Value.R, 1)
	for t := 0; t < g.NumTargets; t++ {
		lo, hi := g.RowPtr[t], g.RowPtr[t+1]
		var dot float64
		for i := lo; i < hi; i++ {
			dot += float64(out.V[i]) * float64(grad.V[i])
		}
		for i := lo; i < hi; i++ {
			ge.V[i] = out.V[i] * (grad.V[i] - float32(dot))
		}
	}
	e.AccumGrad(ge)
}
