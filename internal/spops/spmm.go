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
	d := x.Value.C
	if x.Value.R != g.NumNodes {
		panic("spops: feature rows != sub-graph nodes")
	}
	if w != nil && (w.Value.R != int(g.NumEdges()) || w.Value.C != 1) {
		panic("spops: edge weight shape mismatch")
	}

	tp := x.Tape()
	// The per-target norms live in a tape tensor so a replay can regrow them
	// in place, where the backward closure below reads them.
	norm := tp.NewTensor(g.NumTargets, 1)
	spmmNorms(g, agg, norm.V)
	out := tp.NewTensor(g.NumTargets, d)
	msgs := spmmMessages(tp, be, g, d)
	spmmRun(be, g, x.Value, w, norm.V, msgs, out)
	chargeSpMMForward(dev, be, g, d)
	if tp.Capturing() {
		// Replays re-read the block (same SubCSR pointer, fields rebuilt per
		// batch): norms, shapes and charges all track the live topology.
		reads := []*tensor.Dense{x.Value}
		if w != nil {
			reads = append(reads, w.Value)
		}
		writes := []*tensor.Dense{out}
		if msgs != nil {
			writes = append(writes, msgs)
		}
		tp.CaptureRW("spmm", func() {
			norm.ResizeUninit(g.NumTargets, 1)
			spmmNorms(g, agg, norm.V)
			out.Resize(g.NumTargets, d)
			if msgs != nil {
				msgs.Resize(int(g.NumEdges()), d)
			}
			spmmRun(be, g, x.Value, w, norm.V, msgs, out)
			chargeSpMMForward(dev, be, g, d)
		}, reads, writes)
	}

	if !x.NeedsGrad() && (w == nil || !w.NeedsGrad()) {
		return tp.Const(out)
	}
	inputs := [2]*autograd.Var{x, w}
	n := 1
	if w != nil {
		n = 2
	}
	return tp.Op(out, inputs[:n], func(v *autograd.Var) {
		if x.NeedsGrad() {
			gx := tp.NewTensor(g.NumNodes, d)
			for t := 0; t < g.NumTargets; t++ {
				gr := v.Grad.Row(t)
				for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
					we := norm.V[t] * staticWeight(g, e)
					if w != nil {
						we *= w.Value.V[e]
					}
					tensor.Axpy(gx.Row(int(g.Col[e])), gr, we)
				}
			}
			chargeSpMMBackwardDX(dev, be, g, d)
			x.AccumGrad(gx)
		}
		if w != nil && w.NeedsGrad() {
			gw := tp.NewTensor(int(g.NumEdges()), 1)
			for t := 0; t < g.NumTargets; t++ {
				gr := v.Grad.Row(t)
				for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
					src := x.Value.Row(int(g.Col[e]))
					var dot float32
					for j, gv := range gr {
						dot += gv * src[j]
					}
					gw.V[e] = norm.V[t] * staticWeight(g, e) * dot
				}
			}
			chargeSDDMM(dev, g, d)
			w.AccumGrad(gw)
		}
	})
}

// spmmMessages returns the [E x d] per-edge message buffer of BackendPyG,
// and nil for the fused backends.
func spmmMessages(tp *autograd.Tape, be Backend, g *SubCSR, d int) *tensor.Dense {
	if be != BackendPyG {
		return nil
	}
	return tp.NewTensor(int(g.NumEdges()), d)
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
// [E x d]). All graph fields are read live so a captured closure can re-run
// it against a rebuilt block.
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
	tp := sl.Tape()
	out := tp.NewTensor(int(g.NumEdges()), 1)
	edgeScore(out, g, sl.Value, sr.Value)
	chargeSDDMM(dev, g, 1)
	if tp.Capturing() {
		tp.CaptureRW("sddmm", func() {
			out.ResizeUninit(int(g.NumEdges()), 1)
			edgeScore(out, g, sl.Value, sr.Value)
			chargeSDDMM(dev, g, 1)
		}, []*tensor.Dense{sl.Value, sr.Value}, []*tensor.Dense{out})
	}
	if !sl.NeedsGrad() && !sr.NeedsGrad() {
		return tp.Const(out)
	}
	return tp.Op(out, []*autograd.Var{sl, sr}, func(v *autograd.Var) {
		if sl.NeedsGrad() {
			gl := tp.NewTensor(g.NumTargets, 1)
			for t := 0; t < g.NumTargets; t++ {
				for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
					gl.V[t] += v.Grad.V[e]
				}
			}
			sl.AccumGrad(gl)
		}
		if sr.NeedsGrad() {
			gr := tp.NewTensor(g.NumNodes, 1)
			for t := 0; t < g.NumTargets; t++ {
				for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
					gr.V[g.Col[e]] += v.Grad.V[e]
				}
			}
			sr.AccumGrad(gr)
		}
		chargeSDDMM(dev, g, 1)
	})
}

// edgeScore writes sl[t] + sr[s] for every sampled edge e=(t<-s) of g into
// out.
func edgeScore(out *tensor.Dense, g *SubCSR, sl, sr *tensor.Dense) {
	for t := 0; t < g.NumTargets; t++ {
		for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
			out.V[e] = sl.V[t] + sr.V[g.Col[e]]
		}
	}
}

// EdgeLeakyReLU applies LeakyReLU elementwise to an edge vector.
func EdgeLeakyReLU(dev *sim.Device, x *autograd.Var, slope float32) *autograd.Var {
	tp := x.Tape()
	out := tp.NewTensor(x.Value.R, x.Value.C)
	edgeLeakyReLU(dev, out, x.Value, slope)
	if tp.Capturing() {
		tp.CaptureRW("leakyrelu", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			edgeLeakyReLU(dev, out, x.Value, slope)
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	if !x.NeedsGrad() {
		return tp.Const(out)
	}
	return tp.Op(out, []*autograd.Var{x}, func(v *autograd.Var) {
		gx := tp.NewTensor(x.Value.R, x.Value.C)
		for i, xv := range x.Value.V {
			gx.V[i] = tensor.LeakyReLUGrad(xv, slope) * v.Grad.V[i]
		}
		x.AccumGrad(gx)
	})
}

// edgeLeakyReLU writes LeakyReLU(x) into out and charges the pass to dev.
func edgeLeakyReLU(dev *sim.Device, out, x *tensor.Dense, slope float32) {
	for i, v := range x.V {
		out.V[i] = tensor.LeakyReLU(v, slope)
	}
	if dev != nil {
		dev.Kernel(sim.KernelCost{StreamBytes: float64(8 * len(x.V)), Tag: "leakyrelu"})
	}
}

// SegmentSoftmax normalizes the edge scores of each target's segment to a
// probability distribution (the attention softmax of GAT).
func SegmentSoftmax(dev *sim.Device, g *SubCSR, e *autograd.Var) *autograd.Var {
	if e.Value.R != int(g.NumEdges()) || e.Value.C != 1 {
		panic("spops: segment softmax shape mismatch")
	}
	tp := e.Tape()
	out := tp.NewTensor(e.Value.R, 1)
	segmentSoftmax(dev, g, out, e.Value)
	if tp.Capturing() {
		tp.CaptureRW("segsoftmax", func() {
			// Resize zeroes out, so edges of empty segments stay zero.
			out.Resize(e.Value.R, 1)
			segmentSoftmax(dev, g, out, e.Value)
		}, []*tensor.Dense{e.Value}, []*tensor.Dense{out})
	}
	if !e.NeedsGrad() {
		return tp.Const(out)
	}
	return tp.Op(out, []*autograd.Var{e}, func(v *autograd.Var) {
		ge := tp.NewTensor(e.Value.R, 1)
		for t := 0; t < g.NumTargets; t++ {
			lo, hi := g.RowPtr[t], g.RowPtr[t+1]
			var dot float64
			for i := lo; i < hi; i++ {
				dot += float64(out.V[i]) * float64(v.Grad.V[i])
			}
			for i := lo; i < hi; i++ {
				ge.V[i] = out.V[i] * (v.Grad.V[i] - float32(dot))
			}
		}
		e.AccumGrad(ge)
	})
}

// segmentSoftmax writes the per-target softmax of the edge scores e into
// out (zeroed, so edges of empty segments stay zero) and charges the pass to
// dev.
func segmentSoftmax(dev *sim.Device, g *SubCSR, out, e *tensor.Dense) {
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
	if dev != nil {
		dev.Kernel(sim.KernelCost{StreamBytes: float64(4 * 4 * e.R), Tag: "segsoftmax"})
	}
}
