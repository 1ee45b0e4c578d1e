// Package tensor implements the dense float32 matrix math underlying the
// neural-network stack: matrix multiply (a register-tiled kernel, AVX lanes
// on amd64 and plain Go elsewhere, that keeps the naive loops' summation
// order, row-parallel over a goroutine pool; see matmul.go), broadcast
// elementwise operations, row softmax and reductions. It is the stand-in for
// the dense CUDA kernels PyTorch provides to the real WholeGraph; cost
// accounting for the simulated devices happens in the layers that call it,
// not here.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major [R x C] float32 matrix.
type Dense struct {
	R, C int
	V    []float32
}

// New allocates a zero matrix of the given shape.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", r, c))
	}
	return &Dense{R: r, C: c, V: make([]float32, r*c)}
}

// FromSlice wraps v (not copied) as an [r x c] matrix.
func FromSlice(r, c int, v []float32) *Dense {
	if len(v) != r*c {
		panic(fmt.Sprintf("tensor: %d values for %dx%d", len(v), r, c))
	}
	return &Dense{R: r, C: c, V: v}
}

// Randn fills a new [r x c] matrix with N(0, std) entries from rng.
func Randn(r, c int, std float64, rng *rand.Rand) *Dense {
	d := New(r, c)
	for i := range d.V {
		d.V[i] = float32(rng.NormFloat64() * std)
	}
	return d
}

// Glorot returns a Glorot/Xavier-initialized [in x out] weight matrix.
func Glorot(in, out int, rng *rand.Rand) *Dense {
	std := math.Sqrt(2.0 / float64(in+out))
	return Randn(in, out, std, rng)
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float32 { return d.V[i*d.C+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float32) { d.V[i*d.C+j] = v }

// Row returns row i as a shared sub-slice.
func (d *Dense) Row(i int) []float32 { return d.V[i*d.C : (i+1)*d.C] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	o := New(d.R, d.C)
	copy(o.V, d.V)
	return o
}

// Zero clears all elements in place.
func (d *Dense) Zero() {
	for i := range d.V {
		d.V[i] = 0
	}
}

// Resize reshapes d to [r x c] in place, reusing the existing backing slice
// when it has capacity and reallocating only on growth. The content is always
// zeroed, so a resized tensor is indistinguishable from a freshly allocated
// one — accumulate-style kernels (SpMM's fused +=, scatter backward passes)
// rely on starting from zeros.
func (d *Dense) Resize(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", r, c))
	}
	n := r * c
	if n > cap(d.V) {
		d.V = make([]float32, n)
	} else {
		d.V = d.V[:n]
		for i := range d.V {
			d.V[i] = 0
		}
	}
	d.R, d.C = r, c
}

// ResizeUninit is Resize without the zeroing, for a destination the caller
// overwrites in full before reading it (the *Into kernels that set every
// element): capacity that is reused keeps whatever it held.
func (d *Dense) ResizeUninit(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", r, c))
	}
	n := r * c
	if n > cap(d.V) {
		d.V = make([]float32, n)
	} else {
		d.V = d.V[:n]
	}
	d.R, d.C = r, c
}

// SameShape reports whether d and o have identical shapes.
func (d *Dense) SameShape(o *Dense) bool { return d.R == o.R && d.C == o.C }

func (d *Dense) mustSameShape(o *Dense, op string) {
	if !d.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, d.R, d.C, o.R, o.C))
	}
}

// AddInto sets dst = a + b elementwise.
func AddInto(dst, a, b *Dense) {
	a.mustSameShape(b, "add")
	a.mustSameShape(dst, "add")
	for i := range dst.V {
		dst.V[i] = a.V[i] + b.V[i]
	}
}

// AccumInto adds src into dst elementwise.
func AccumInto(dst, src *Dense) {
	dst.mustSameShape(src, "accum")
	axpy1(dst.V, src.V, 1) // 1*s is s exactly
}

// ScaleInto sets dst = s * a.
func ScaleInto(dst, a *Dense, s float32) {
	a.mustSameShape(dst, "scale")
	for i := range dst.V {
		dst.V[i] = s * a.V[i]
	}
}

// MulInto sets dst = a * b elementwise (Hadamard).
func MulInto(dst, a, b *Dense) {
	a.mustSameShape(b, "mul")
	a.mustSameShape(dst, "mul")
	for i := range dst.V {
		dst.V[i] = a.V[i] * b.V[i]
	}
}

// AddRowInto sets dst = a with row vector b (1 x C) added to every row.
func AddRowInto(dst, a, b *Dense) {
	if b.R != 1 || b.C != a.C {
		panic(fmt.Sprintf("tensor: bias shape %dx%d for %dx%d", b.R, b.C, a.R, a.C))
	}
	a.mustSameShape(dst, "addrow")
	for i := 0; i < a.R; i++ {
		ar, dr := a.Row(i), dst.Row(i)
		for j, bv := range b.V {
			dr[j] = ar[j] + bv
		}
	}
}

// ColSumInto sets dst (1 x C) to the column sums of a.
func ColSumInto(dst, a *Dense) {
	if dst.R != 1 || dst.C != a.C {
		panic("tensor: colsum shape mismatch")
	}
	dst.Zero()
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		for j, v := range ar {
			dst.V[j] += v
		}
	}
}

// MaxAbs returns the largest absolute entry (useful for tests and gradient
// clipping diagnostics).
func (d *Dense) MaxAbs() float32 {
	var m float32
	for _, v := range d.V {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
