package tensor

import (
	"math"

	"wholegraph/internal/xrand"
)

// Element-wise selects: ReLU, its gradient and the dropout mask product.
//
// Value contract. Each output element is a select on one comparison, and the
// unselected side is +0 — never the input, never a product with zero:
//
//	relu:     d = a > 0 ? a : +0      (NaN -> +0, -0 -> +0, denormals kept)
//	reluGrad: d = a > 0 ? g : +0      (g's bits pass through, NaN included)
//	maskMul:  d = m != 0 ? a*m : +0   (one rounding; a dropped NaN or Inf is +0)
//
// Activation signs are close to random, so as branches these mispredict on
// about every other element. On amd64 with AVX the first len(d)&^7 elements go
// through eltwise_amd64.s — MAXPS against +0, or a compare mask ANDed onto the
// selected bits — and the Go loop of the same function finishes the tail;
// everywhere else the Go loop is the whole op, and it is the reference the
// tests and fuzz targets hold the lanes to bit for bit.

func relu(d, a []float32) {
	a = a[:len(d)]
	j := 0
	if v := len(d) &^ 7; haveAVX && v != 0 {
		reluAVX(&d[0], &a[0], v)
		j = v
	}
	for ; j < len(d); j++ {
		if v := a[j]; v > 0 {
			d[j] = v
		} else {
			d[j] = 0
		}
	}
}

func reluGrad(d, a, g []float32) {
	a, g = a[:len(d)], g[:len(d)]
	j := 0
	if v := len(d) &^ 7; haveAVX && v != 0 {
		reluGradAVX(&d[0], &a[0], &g[0], v)
		j = v
	}
	for ; j < len(d); j++ {
		if a[j] > 0 {
			d[j] = g[j]
		} else {
			d[j] = 0
		}
	}
}

func maskMul(d, a, m []float32) {
	a, m = a[:len(d)], m[:len(d)]
	j := 0
	if v := len(d) &^ 7; haveAVX && v != 0 {
		maskMulAVX(&d[0], &a[0], &m[0], v)
		j = v
	}
	for ; j < len(d); j++ {
		if m[j] != 0 {
			d[j] = a[j] * m[j]
		} else {
			d[j] = 0
		}
	}
}

// ReLUInto sets dst = max(a, 0), with NaN and -0 mapped to +0.
func ReLUInto(dst, a *Dense) {
	a.mustSameShape(dst, "relu")
	relu(dst.V, a.V)
}

// ReLUGradInto sets dst = grad where a > 0, else 0 (backward of ReLU).
func ReLUGradInto(dst, a, grad *Dense) {
	a.mustSameShape(grad, "relugrad")
	a.mustSameShape(dst, "relugrad")
	reluGrad(dst.V, a.V, grad.V)
}

// LeakyReLU applies max(x, slope*x) elementwise to a scalar.
func LeakyReLU(x, slope float32) float32 {
	if x > 0 {
		return x
	}
	return slope * x
}

// LeakyReLUGrad returns the derivative of LeakyReLU at x.
func LeakyReLUGrad(x, slope float32) float32 {
	if x > 0 {
		return 1
	}
	return slope
}

// logSumExp returns log(sum(exp(row))), numerically stable: the row max is
// subtracted before exponentiating.
func logSumExp(row []float32) float32 {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - maxv))
	}
	return float32(math.Log(sum)) + maxv
}

// LogSoftmaxInto sets dst to the row-wise log-softmax of a.
func LogSoftmaxInto(dst, a *Dense) {
	a.mustSameShape(dst, "logsoftmax")
	for i := 0; i < a.R; i++ {
		ar, dr := a.Row(i), dst.Row(i)
		lse := logSumExp(ar)
		for j, v := range ar {
			dr[j] = v - lse
		}
	}
}

// CrossEntropy computes the mean negative log-likelihood of the labels
// under row-wise softmax of logits, and, if grad is non-nil, writes the
// gradient d(loss)/d(logits) = (softmax - onehot)/rows into grad. Rows with
// label < 0 are ignored (unlabeled). It allocates nothing: with a grad the
// log-softmax is staged there, without one only each labelled row's
// log-sum-exp is needed.
func CrossEntropy(logits *Dense, labels []int32, grad *Dense) float64 {
	if len(labels) != logits.R {
		panic("tensor: label count mismatch")
	}
	if grad != nil {
		grad.mustSameShape(logits, "crossentropy")
		LogSoftmaxInto(grad, logits)
	}
	var loss float64
	n := 0
	for i, lab := range labels {
		if lab < 0 {
			continue
		}
		n++
		if grad != nil {
			loss -= float64(grad.Row(i)[lab])
		} else {
			row := logits.Row(i)
			loss -= float64(row[lab] - logSumExp(row))
		}
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
				clear(gr)
				continue
			}
			for j, ls := range gr {
				gr[j] = float32(math.Exp(float64(ls))) * inv
			}
			gr[lab] -= inv
		}
	}
	return loss / float64(n)
}

// ArgMax returns the index of the first largest element of row (0 when row
// is empty or all NaN).
func ArgMax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// Accuracy returns the fraction of rows whose argmax equals the label,
// ignoring rows with label < 0.
func Accuracy(logits *Dense, labels []int32) float64 {
	correct, n := 0, 0
	for i, lab := range labels {
		if lab < 0 {
			continue
		}
		n++
		if int32(ArgMax(logits.Row(i))) == lab {
			correct++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

// DropoutInto zeroes each element of a with probability p and scales the
// survivors by 1/(1-p), recording the mask (0 or 1/(1-p)) for backward. Each
// element draws one src.Float32, in order, and is dropped when the draw is
// below p. The keep is branch-free — the scale's bits ANDed with a compare
// mask — since at p = 0.5 a branch on the draw mispredicts every other
// element. src must not be nil when p > 0.
func DropoutInto(dst, a, mask *Dense, p float32, src *xrand.Source) {
	a.mustSameShape(dst, "dropout")
	a.mustSameShape(mask, "dropout")
	if p <= 0 {
		copy(dst.V, a.V)
		for i := range mask.V {
			mask.V[i] = 1
		}
		return
	}
	scale, m := math.Float32bits(1/(1-p)), mask.V
	for i := range m {
		var drop uint32
		if src.Float32() < p {
			drop = 1
		}
		m[i] = math.Float32frombits(scale & (drop - 1))
	}
	maskMul(dst.V, a.V, mask.V)
}
