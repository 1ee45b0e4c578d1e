package tensor

import "fmt"

// Matrix multiplication: one register-tiled micro-kernel (axpy4, its two-row
// form axpy4x2 and the one-term tail axpy1) behind three thin drivers,
// MatMulInto, MatMulTInto and TMatMulInto. The micro-kernel is a loop over
// output columns j with one load per multiply-add and no bounds checks. On
// amd64 with AVX its first len(d)&^7 columns run eight to a 256-bit register
// in assembly (axpy_amd64.s, chosen once at init by haveAVX) and the Go loop
// of the same function finishes the tail; everywhere else, and for rows under
// eight columns, the Go loop is the whole kernel. The Go compiler neither
// vectorises nor (on amd64) fuses multiply-add, so the two do the same
// arithmetic, and the tests hold the assembly to the loop bit for bit.
//
// Summation-order contract. Every output element is the float32 recurrence
//
//	s = +0;  s += a(k)*b(k)  for k ascending, one rounding per multiply and per add
//
// and nothing here may change that order: training losses, parameters and
// hence virtual times are pinned to it bit for bit. What may be re-tiled is
// where s lives and which elements share loads: the kernel carries s in a
// register across four k instead of storing and reloading dst once per k, and
// two output rows share the four b loads. Vector lanes are legal for the same
// reason: a lane is one column j, columns never interact, each lane runs the
// recurrence above with VMULPS and VADDPS as two instructions (one IEEE
// rounding each, as MULSS and ADDSS), and MXCSR stays Go's default — round to
// nearest, no flush-to-zero, no denormals-are-zero. What may not: fused
// multiply-add (VFMADD, math.FMA: one rounding where there were two),
// horizontal adds or any sum across lanes, splitting k across accumulators,
// reordering terms. Output rows never interact either, so any split of them
// over goroutines is bit-identical too (parallel.go).
//
// Zeros. MatMulInto and TMatMulInto leave out the terms whose a is exactly
// zero — ReLU and dropout zero ~75 % of hidden activations — and leave out
// exactly those, so an Inf or NaN in b reaches the same outputs as in a
// term-by-term loop. For finite b the skip does not even change bits: s
// starts at +0 and a sum is -0 only if both operands are, so s is never -0
// and s + (±0) == s. MatMulTInto is the dot product a·b and keeps every term.

// axpy1 adds a0*b0 to d element-wise.
func axpy1(d, b0 []float32, a0 float32) {
	b0 = b0[:len(d)]
	j := 0
	if v := len(d) &^ 7; haveAVX && v != 0 {
		axpy1AVX(&d[0], &b0[0], v, a0)
		j = v
	}
	for ; j < len(d); j++ {
		d[j] += a0 * b0[j]
	}
}

// Axpy adds a*x to d element-wise: the micro-kernel's one-term form, for
// row accumulations outside this package (SpMM). len(x) must be >= len(d).
func Axpy(d, x []float32, a float32) { axpy1(d, x, a) }

// axpy4 adds a0*b0, a1*b1, a2*b2, a3*b3 to d element-wise, in that order,
// with the running sum held in a register between the four.
func axpy4(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	j := 0
	if v := len(d) &^ 7; haveAVX && v != 0 {
		axpy4AVX(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], v, a0, a1, a2, a3)
		j = v
	}
	for ; j < len(d); j++ {
		s := d[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		d[j] = s
	}
}

// axpy4x2 is axpy4 on two output rows that share the four b rows: d gets the
// a terms, e the c terms.
func axpy4x2(d, e, b0, b1, b2, b3 []float32, a0, a1, a2, a3, c0, c1, c2, c3 float32) {
	e, b0, b1, b2, b3 = e[:len(d)], b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	j := 0
	if v := len(d) &^ 7; haveAVX && v != 0 {
		axpy4x2AVX(&d[0], &e[0], &b0[0], &b1[0], &b2[0], &b3[0], v, a0, a1, a2, a3, c0, c1, c2, c3)
		j = v
	}
	for ; j < len(d); j++ {
		v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
		s, t := d[j], e[j]
		s += a0 * v0
		t += c0 * v0
		s += a1 * v1
		t += c1 * v1
		s += a2 * v2
		t += c2 * v2
		s += a3 * v3
		t += c3 * v3
		d[j], e[j] = s, t
	}
}

// scratch is one goroutine's kernel working memory: (k, a) pairs — the terms
// of the row mulRows is on, or tmulRows' per-row queues. Pool workers own one
// each; a caller's rides in its job record (parallel.go).
type scratch struct {
	idx    []int32
	val    []float32
	queued []uint8
}

// mulRows sets rows [lo, hi) of dst to the same rows of a [m x k] times
// b [k x n]. Two adjacent rows go through axpy4x2 block by block for as long
// as all eight of a block's a values take part; whatever is left of a row
// (from the first zero on, a k tail, an unpaired row) is finished by
// mulRowTail.
func mulRows(s *scratch, dst, a, b *Dense, lo, hi int, skipZeros bool) {
	K, n := a.C, b.C
	if n == 0 {
		return
	}
	for i := lo; i < hi; i += 2 {
		ar := a.V[i*K : (i+1)*K]
		d := dst.V[i*n : (i+1)*n]
		clear(d)
		if i+1 == hi {
			s.mulRowTail(d, ar, b, 0, skipZeros)
			break
		}
		cr := a.V[(i+1)*K : (i+2)*K]
		e := dst.V[(i+1)*n : (i+2)*n]
		clear(e)
		k := 0
		for ; k+4 <= K; k += 4 {
			a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
			c0, c1, c2, c3 := cr[k], cr[k+1], cr[k+2], cr[k+3]
			if skipZeros && (a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 || c0 == 0 || c1 == 0 || c2 == 0 || c3 == 0) {
				break
			}
			bb := b.V[k*n : (k+4)*n]
			axpy4x2(d, e, bb[:n], bb[n:2*n], bb[2*n:3*n], bb[3*n:], a0, a1, a2, a3, c0, c1, c2, c3)
		}
		s.mulRowTail(d, ar, b, k, skipZeros)
		s.mulRowTail(e, cr, b, k, skipZeros)
	}
}

// mulRowTail adds the terms k >= from of one output row to d: it compacts
// them — all of them, or only those with a non-zero a — into (k, a) pairs
// and applies the pairs four at a time, in ascending k.
func (s *scratch) mulRowTail(d, ar []float32, b *Dense, from int, skipZeros bool) {
	s.grow(len(ar))
	idx, val := s.idx[:len(ar)], s.val[:len(ar)]
	nz := 0
	for k := from; k < len(ar); k++ {
		if av := ar[k]; av != 0 || !skipZeros {
			idx[nz], val[nz] = int32(k), av
			nz++
		}
	}
	applyTerms(d, b, idx[:nz], val[:nz])
}

// applyTerms adds val[p] * (row idx[p] of b) to d for every p, in order,
// four terms to an axpy4.
func applyTerms(d []float32, b *Dense, idx []int32, val []float32) {
	n := b.C
	val = val[:len(idx)]
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		k0, k1, k2, k3 := int(idx[p]), int(idx[p+1]), int(idx[p+2]), int(idx[p+3])
		axpy4(d, b.V[k0*n:(k0+1)*n], b.V[k1*n:(k1+1)*n], b.V[k2*n:(k2+1)*n], b.V[k3*n:(k3+1)*n],
			val[p], val[p+1], val[p+2], val[p+3])
	}
	for ; p < len(idx); p++ {
		k0 := int(idx[p])
		axpy1(d, b.V[k0*n:(k0+1)*n], val[p])
	}
}

func mulRowsSkipZeros(s *scratch, dst, a, b *Dense, lo, hi int) {
	mulRows(s, dst, a, b, lo, hi, true)
}

func mulRowsAllTerms(s *scratch, dst, a, b *Dense, lo, hi int) {
	mulRows(s, dst, a, b, lo, hi, false)
}

// tmulRows sets rows [lo, hi) of dst = aᵀ*b, i.e. the products of columns
// [lo, hi) of a [k x m] with b [k x n]. a is row-major, so the walk is over k,
// four rows at a time. Where an output row — or two adjacent ones — has all
// four terms of the block and nothing queued, the block goes straight through
// axpy4 / axpy4x2. Otherwise the row's non-zero terms queue up in s and are
// applied four at a time, still in ascending k.
func tmulRows(s *scratch, dst, a, b *Dense, lo, hi int) {
	K, m, n := a.R, a.C, b.C
	if n == 0 {
		return
	}
	out := dst.V[lo*n : hi*n]
	clear(out)
	w := hi - lo
	s.resetQueues(w)
	queued := s.queued
	k := 0
	for ; k+4 <= K; k += 4 {
		a0 := a.V[k*m+lo : k*m+hi]
		a1 := a.V[(k+1)*m+lo : (k+1)*m+hi][:w]
		a2 := a.V[(k+2)*m+lo : (k+2)*m+hi][:w]
		a3 := a.V[(k+3)*m+lo : (k+3)*m+hi][:w]
		bb := b.V[k*n : (k+4)*n]
		b0, b1, b2, b3 := bb[:n], bb[n:2*n], bb[2*n:3*n], bb[3*n:]
		for i := 0; i < w; i++ {
			x0, x1, x2, x3 := a0[i], a1[i], a2[i], a3[i]
			d := out[i*n : (i+1)*n]
			if queued[i] != 0 || x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
				s.queue(d, b, i, k, x0)
				s.queue(d, b, i, k+1, x1)
				s.queue(d, b, i, k+2, x2)
				s.queue(d, b, i, k+3, x3)
				continue
			}
			if i+1 < w && queued[i+1] == 0 {
				y0, y1, y2, y3 := a0[i+1], a1[i+1], a2[i+1], a3[i+1]
				if y0 != 0 && y1 != 0 && y2 != 0 && y3 != 0 {
					axpy4x2(d, out[(i+1)*n:(i+2)*n], b0, b1, b2, b3, x0, x1, x2, x3, y0, y1, y2, y3)
					i++
					continue
				}
			}
			axpy4(d, b0, b1, b2, b3, x0, x1, x2, x3)
		}
	}
	for ; k < K; k++ {
		for i, x := range a.V[k*m+lo : k*m+hi] {
			s.queue(out[i*n:(i+1)*n], b, i, k, x)
		}
	}
	for i, q := range queued {
		applyTerms(out[i*n:(i+1)*n], b, s.idx[4*i:4*i+int(q)], s.val[4*i:4*i+int(q)])
	}
}

// resetQueues empties the term queues of w output rows: up to four (k, a)
// pairs each, row i's at idx/val[4i:4i+queued[i]].
func (s *scratch) resetQueues(w int) {
	if cap(s.queued) < w {
		s.queued = make([]uint8, w)
	}
	s.queued = s.queued[:w]
	clear(s.queued)
	s.grow(4 * w)
}

func (s *scratch) grow(n int) {
	if len(s.idx) < n {
		s.idx = make([]int32, n)
		s.val = make([]float32, n)
	}
}

// queue appends the term x*b[k] to output row i's queue unless x is zero,
// and applies the queue to the row, d, once it holds four terms.
func (s *scratch) queue(d []float32, b *Dense, i, k int, x float32) {
	if x == 0 {
		return
	}
	q := int(s.queued[i])
	idx, val := s.idx[4*i:4*i+4], s.val[4*i:4*i+4]
	idx[q], val[q] = int32(k), x
	if q < 3 {
		s.queued[i]++
		return
	}
	s.queued[i] = 0
	applyTerms(d, b, idx, val)
}

// MatMulInto sets dst = a [m x k] * b [k x n].
func MatMulInto(dst, a, b *Dense) {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul inner dims %d vs %d", a.C, b.R))
	}
	if dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("tensor: matmul dst %dx%d for %dx%d", dst.R, dst.C, a.R, b.C))
	}
	j := getJob()
	j.run(mulRowsSkipZeros, dst, a, b, a.R, a.R*a.C*b.C)
	putJob(j)
}

// MatMul returns a * b in a fresh matrix.
func MatMul(a, b *Dense) *Dense {
	dst := New(a.R, b.C)
	MatMulInto(dst, a, b)
	return dst
}

// MatMulTInto sets dst = a [m x k] * bᵀ where b is [n x k]. It transposes
// the (small) b into the job's scratch and runs the MatMulInto kernel on it
// with every term kept, which is the dot product's summation order.
func MatMulTInto(dst, a, b *Dense) {
	if a.C != b.C {
		panic(fmt.Sprintf("tensor: matmulT inner dims %d vs %d", a.C, b.C))
	}
	if dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("tensor: matmulT dst %dx%d for %dx%d", dst.R, dst.C, a.R, b.R))
	}
	j := getJob()
	j.bt.ResizeUninit(b.C, b.R)
	transposeInto(&j.bt, b)
	j.run(mulRowsAllTerms, dst, a, &j.bt, a.R, a.R*a.C*b.R)
	putJob(j)
}

// TMatMulInto sets dst = aᵀ * b where a is [k x m] and b is [k x n];
// dst is [m x n]. This is the weight-gradient kernel Xᵀ·dY, parallel over
// output rows (columns of a).
func TMatMulInto(dst, a, b *Dense) {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: tmatmul outer dims %d vs %d", a.R, b.R))
	}
	if dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("tensor: tmatmul dst %dx%d for %dx%d", dst.R, dst.C, a.C, b.C))
	}
	j := getJob()
	j.run(tmulRows, dst, a, b, a.C, a.R*a.C*b.C)
	putJob(j)
}

// Transpose returns aᵀ in a fresh matrix.
func Transpose(a *Dense) *Dense {
	dst := New(a.C, a.R)
	transposeInto(dst, a)
	return dst
}

func transposeInto(dst, a *Dense) {
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		for j, v := range ar {
			dst.V[j*a.R+i] = v
		}
	}
}
