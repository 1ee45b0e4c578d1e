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
	norm := tp.Scratch(g.NumTargets)
	spmmNorms(g, agg, norm)
	staticW := func(e int64) float32 {
		if g.EdgeW == nil {
			return 1
		}
		return g.EdgeW[e]
	}

	out := tp.NewTensor(g.NumTargets, d)
	var msgs *tensor.Dense
	if be == BackendPyG {
		msgs = tp.NewTensor(int(g.NumEdges()), d)
	}
	spmmRun(be, g, x.Value, w, norm, msgs, out)
	chargeSpMMForward(dev, be, g, d)
	if tp.Capturing() {
		// Replays re-read the block (same SubCSR pointer, fields rebuilt per
		// batch): norms, shapes and charges all track the live topology. The
		// backward closure below shares the norm variable, so a growth
		// reallocation here is visible to it too.
		reads := []*tensor.Dense{x.Value}
		if w != nil {
			reads = append(reads, w.Value)
		}
		writes := []*tensor.Dense{out}
		if msgs != nil {
			writes = append(writes, msgs)
		}
		tp.CaptureRW("spmm", func() {
			if g.NumTargets > len(norm) {
				norm = make([]float32, g.NumTargets)
			}
			spmmNorms(g, agg, norm)
			out.Resize(g.NumTargets, d)
			if msgs != nil {
				msgs.Resize(int(g.NumEdges()), d)
			}
			spmmRun(be, g, x.Value, w, norm, msgs, out)
			chargeSpMMForward(dev, be, g, d)
		}, reads, writes)
	}

	inputs := []*autograd.Var{x}
	if w != nil {
		inputs = append(inputs, w)
	}
	return tp.Op(out, inputs, func(v *autograd.Var) {
		if x.NeedsGrad() {
			gx := tp.NewTensor(g.NumNodes, d)
			for t := 0; t < g.NumTargets; t++ {
				gr := v.Grad.Row(t)
				for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
					we := norm[t] * staticW(e)
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
					gw.V[e] = norm[t] * staticW(e) * dot
				}
			}
			chargeSDDMM(dev, g, d)
			w.AccumGrad(gw)
		}
	})
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
	staticW := func(e int64) float32 {
		if g.EdgeW == nil {
			return 1
		}
		return g.EdgeW[e]
	}
	switch be {
	case BackendPyG:
		// Materialize per-edge messages, then segment-reduce.
		for t := 0; t < g.NumTargets; t++ {
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				src := xVal.Row(int(g.Col[e]))
				dst := msgs.Row(int(e))
				we := staticW(e)
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
					c := norm[t] * staticW(e)
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
	score := func() {
		for t := 0; t < g.NumTargets; t++ {
			for e := g.RowPtr[t]; e < g.RowPtr[t+1]; e++ {
				out.V[e] = sl.Value.V[t] + sr.Value.V[g.Col[e]]
			}
		}
	}
	score()
	chargeSDDMM(dev, g, 1)
	if tp.Capturing() {
		tp.CaptureRW("sddmm", func() {
			out.ResizeUninit(int(g.NumEdges()), 1)
			score()
			chargeSDDMM(dev, g, 1)
		}, []*tensor.Dense{sl.Value, sr.Value}, []*tensor.Dense{out})
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

// EdgeLeakyReLU applies LeakyReLU elementwise to an edge vector.
func EdgeLeakyReLU(dev *sim.Device, x *autograd.Var, slope float32) *autograd.Var {
	tp := x.Tape()
	out := tp.NewTensor(x.Value.R, x.Value.C)
	lrelu := func() {
		for i, v := range x.Value.V {
			out.V[i] = tensor.LeakyReLU(v, slope)
		}
		if dev != nil {
			dev.Kernel(sim.KernelCost{StreamBytes: float64(8 * len(x.Value.V)), Tag: "leakyrelu"})
		}
	}
	lrelu()
	if tp.Capturing() {
		tp.CaptureRW("leakyrelu", func() {
			out.ResizeUninit(x.Value.R, x.Value.C)
			lrelu()
		}, []*tensor.Dense{x.Value}, []*tensor.Dense{out})
	}
	return tp.Op(out, []*autograd.Var{x}, func(v *autograd.Var) {
		gx := tp.NewTensor(x.Value.R, x.Value.C)
		for i, xv := range x.Value.V {
			gx.V[i] = tensor.LeakyReLUGrad(xv, slope) * v.Grad.V[i]
		}
		x.AccumGrad(gx)
	})
}

// SegmentSoftmax normalizes the edge scores of each target's segment to a
// probability distribution (the attention softmax of GAT).
func SegmentSoftmax(dev *sim.Device, g *SubCSR, e *autograd.Var) *autograd.Var {
	if e.Value.R != int(g.NumEdges()) || e.Value.C != 1 {
		panic("spops: segment softmax shape mismatch")
	}
	tp := e.Tape()
	out := tp.NewTensor(e.Value.R, 1)
	softmax := func() {
		for t := 0; t < g.NumTargets; t++ {
			lo, hi := g.RowPtr[t], g.RowPtr[t+1]
			if lo == hi {
				continue
			}
			maxv := e.Value.V[lo]
			for i := lo + 1; i < hi; i++ {
				if e.Value.V[i] > maxv {
					maxv = e.Value.V[i]
				}
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += math.Exp(float64(e.Value.V[i] - maxv))
			}
			for i := lo; i < hi; i++ {
				out.V[i] = float32(math.Exp(float64(e.Value.V[i]-maxv)) / sum)
			}
		}
		if dev != nil {
			dev.Kernel(sim.KernelCost{StreamBytes: float64(4 * 4 * e.Value.R), Tag: "segsoftmax"})
		}
	}
	softmax()
	if tp.Capturing() {
		tp.CaptureRW("segsoftmax", func() {
			// Resize zeroes out, so edges of empty segments stay zero.
			out.Resize(e.Value.R, 1)
			softmax()
		}, []*tensor.Dense{e.Value}, []*tensor.Dense{out})
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
