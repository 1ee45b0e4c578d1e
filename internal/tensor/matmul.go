package tensor

import (
	"fmt"
	"math"
)

// Matrix multiplication: one register-blocked tile (tile4) and its one-row
// form (terms) behind three thin drivers, MatMulInto, MatMulTInto and
// TMatMulInto. All three are one routine, gemm, over a logical a whose
// element (i, k) sits at a.V[i*lda + k*ast]: MatMulInto's a has astride 1,
// TMatMulInto's is read in place with lda 1 and astride m, and MatMulTInto
// runs over a transposed copy of its (small) b. On amd64 with AVX the tile
// and the terms form are assembly (axpy_amd64.s, chosen once at init by
// haveAVX); everywhere else the Go loops below are the whole kernel, and they
// are the reference the tests hold the assembly to, bit for bit.
//
// Summation-order contract. Every output element is the float32 recurrence
//
//	s = +0;  s += a(k)*b(k)  for k ascending, one rounding per multiply and per add
//
// and nothing here may change that order: training losses, parameters and
// hence virtual times are pinned to it bit for bit. What may be re-tiled is
// where s lives and which elements share loads. The tile keeps the sums of
// four output rows by one 16-column strip in eight 256-bit registers for a
// whole k panel, so d is loaded and stored once per panel rather than once
// per term, the four rows share each b load, and eight independent add
// chains hide the add latency; the terms form keeps one row's sums for up to
// 32 columns in four registers across its whole term list. A lane is one
// column j, columns never interact, and each lane runs the recurrence above
// with VMULPS and VADDPS as two instructions (one IEEE rounding each, as MULSS
// and ADDSS) under Go's default MXCSR — round to nearest, no flush-to-zero,
// no denormals-are-zero. The last, partial strip of a row goes through
// VMASKMOVPS, which neither reads nor writes the lanes past n. K is cut into
// panels of b that stay in cache (panelK); a panel's sums go back to d and
// the next panel resumes from them, which keeps k ascending. What may not:
// fused multiply-add (VFMADD, math.FMA: one rounding where there were two),
// horizontal adds or any sum across lanes, splitting k across accumulators,
// reordering terms. Output rows never interact either, so any split of them
// over goroutines is bit-identical too (parallel.go).
//
// Zeros. MatMulInto and TMatMulInto leave out the terms whose a is exactly
// zero — ReLU and dropout zero ~75 % of hidden activations — and leave out
// exactly those, so an Inf or NaN in b reaches the same outputs as in a
// term-by-term loop. A reachable s is never -0: it starts at +0, and a float
// sum is -0 only if both operands are. So adding a term that is ±0 leaves
// every reachable s unchanged, and a zero-a term is ±0 whenever its b is
// finite. The tile uses that: it runs a strip with every term, and if all the
// strip's sums come out finite no term met a 0*Inf or 0*NaN (that NaN would
// have stuck), so each zero-a term added ±0 and the sums are those of the
// loop. Otherwise it runs the strip again from d with the masked product —
// a*b ANDed with a != 0 — whose masked terms add +0 and so are bit-equal to
// skipped ones. The n == 1 products test their b column once instead
// (finite). Rows that are wide and mostly zero compact their non-zero terms
// and run the terms form, which skips them outright (compacts). MatMulTInto
// is the dot product a·b and keeps every term.

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

// Axpy adds a*x to d element-wise: the one-term kernel, for row
// accumulations outside this package (SpMM's scatter). len(x) must be >=
// len(d).
func Axpy(d, x []float32, a float32) { axpy1(d, x, a) }

// AxpyRows adds coef[p] * x.Row(rows[p]) to d for every p, in order, with
// the running sums held in registers across the whole list: the tile's
// one-row form, for row accumulations outside this package (SpMM's gather).
// len(d) must be <= x.C and len(coef) >= len(rows).
func AxpyRows(d []float32, x *Dense, rows []int32, coef []float32) {
	terms(d, x.V, x.C, rows, coef)
}

// axpy4 adds a0*b0, a1*b1, a2*b2, a3*b3 to d element-wise, in that order,
// with the running sum held in a register between the four: the Go kernels'
// inner loop.
func axpy4(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j := range d {
		s := d[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		d[j] = s
	}
}

// tile4 adds to the four output rows d[r*ldd : r*ldd+n], r < 4, the terms
// a(r, kk) * b[kk*ldb : kk*ldb+n] for kk = 0 .. k-1 in order, where a(r, kk)
// is a[r*lda + kk*ast]. With skip set, terms whose a is zero are left out;
// d must then hold no -0, which no sum gemm keeps there does. s is the Go
// loops' working memory.
func tile4(s *scratch, d []float32, ldd int, a []float32, lda, ast int, b []float32, ldb, k, n int, skip bool) {
	if k == 0 || n == 0 {
		return
	}
	// The last element each operand is read or written at.
	_, _, _ = d[3*ldd+n-1], a[3*lda+(k-1)*ast], b[(k-1)*ldb+n-1]
	if haveAVX {
		tile4AVX(&d[0], ldd, &a[0], lda, ast, &b[0], ldb, k, n, skip)
		return
	}
	// In Go, two rows share the four b rows of a block for as long as all
	// eight a take part; each finishes alone, through row, from the first
	// block that has a zero.
	for r := 0; r < 4; r += 2 {
		d0, d1, a0, a1 := d[r*ldd:r*ldd+n], d[(r+1)*ldd:(r+1)*ldd+n], a[r*lda:], a[(r+1)*lda:]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			x0, x1, x2, x3 := a0[kk*ast], a0[(kk+1)*ast], a0[(kk+2)*ast], a0[(kk+3)*ast]
			y0, y1, y2, y3 := a1[kk*ast], a1[(kk+1)*ast], a1[(kk+2)*ast], a1[(kk+3)*ast]
			if skip && (x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 || y0 == 0 || y1 == 0 || y2 == 0 || y3 == 0) {
				break
			}
			bb := b[kk*ldb:]
			axpy4x2(d0, d1, bb[:n], bb[ldb:ldb+n], bb[2*ldb:2*ldb+n], bb[3*ldb:3*ldb+n], x0, x1, x2, x3, y0, y1, y2, y3)
		}
		if kk < k {
			s.row(d0, a0[kk*ast:], ast, b[kk*ldb:], ldb, k-kk, skip)
			s.row(d1, a1[kk*ast:], ast, b[kk*ldb:], ldb, k-kk, skip)
		}
	}
}

// axpy4x2 is axpy4 on two output rows that share the four b rows: d gets the
// a terms, e the c terms.
func axpy4x2(d, e, b0, b1, b2, b3 []float32, a0, a1, a2, a3, c0, c1, c2, c3 float32) {
	e, b0, b1, b2, b3 = e[:len(d)], b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j := range d {
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

// terms adds to d the terms val[p] * b[idx[p]*ldb : idx[p]*ldb+len(d)] for
// every p, in order: the tile's one-row form over a list of b rows.
func terms(d, b []float32, ldb int, idx []int32, val []float32) {
	n, nt := len(d), len(idx)
	if n == 0 || nt == 0 {
		return
	}
	val = val[:nt]
	_ = b[0:n:ldb] // rows are no longer than their stride
	if haveAVX {
		// Every row the list names is inside b (the Go loop slices them).
		for _, k := range idx {
			_ = b[int(k)*ldb : int(k)*ldb+n]
		}
		termsAVX(&d[0], n, &b[0], ldb, &idx[0], &val[0], nt)
		return
	}
	bRow := func(p int) []float32 { k := int(idx[p]) * ldb; return b[k : k+n] }
	p := 0
	for ; p+4 <= nt; p += 4 {
		axpy4(d, bRow(p), bRow(p+1), bRow(p+2), bRow(p+3), val[p], val[p+1], val[p+2], val[p+3])
	}
	for ; p < nt; p++ {
		axpy1(d, bRow(p), val[p])
	}
}

// scratch is one goroutine's kernel working memory: the compacted (k, a)
// terms of the output row gemm is on, or the row indices of a column
// product. Pool workers own one each; a caller's rides in its job record
// (parallel.go).
type scratch struct {
	idx []int32
	val []float32
}

func (s *scratch) grow(n int) {
	if len(s.idx) < n {
		s.idx = make([]int32, n)
		s.val = make([]float32, n)
	}
}

// panelK is the k panel gemm cuts K into for b rows of n columns: 64 KiB of
// b, which stays in cache while every row group of the range passes over it
// (a tall Xᵀ·dY would otherwise stream all of b once per four output rows).
func panelK(n int) int { return max(64, 16384/n) }

// gemm sets rows [lo, hi) of dst [m x n] to a·b for b [K x n] and the
// logical [m x K] matrix a whose element (i, k) is av[i*lda + k*ast]. With
// skip set, terms whose a is zero are left out. Rows go through the tile four
// at a time, panel by panel; the rows left over, and a panel's rows when
// compacts says they are wide and mostly zero, go through row.
func gemm(s *scratch, dst *Dense, av []float32, lda, ast, K int, b *Dense, lo, hi int, skip bool) {
	n := b.C
	clear(dst.V[lo*n : hi*n])
	if n == 0 || K == 0 {
		return
	}
	kc := panelK(n)
	for k0 := 0; k0 < K; k0 += kc {
		k := min(kc, K-k0)
		bp := b.V[k0*n : (k0+k)*n]
		i := lo
		compact := skip && hi-i >= 4 && compacts(av[i*lda+k0*ast:], lda, ast, k, n)
		for ; i+4 <= hi; i += 4 {
			ap, d := av[i*lda+k0*ast:], dst.V[i*n:(i+4)*n]
			if !compact {
				tile4(s, d, n, ap, lda, ast, bp, n, k, n, skip)
				continue
			}
			for r := 0; r < 4; r++ {
				s.row(d[r*n:(r+1)*n], ap[r*lda:], ast, bp, n, k, true)
			}
		}
		for ; i < hi; i++ {
			s.row(dst.V[i*n:(i+1)*n], av[i*lda+k0*ast:], ast, bp, n, k, skip)
		}
	}
}

// compacts reports whether the four rows of a panel at a, and the panel's
// other row groups with them, are cheaper as compacted terms than through
// the tile. Per (row, k) the tile costs about one cycle per eight columns
// whatever a holds; compacting costs about six (the scalar pass of compact
// and the row's share of its call), plus five per non-zero term for each
// pass of terms over 32 or 16 columns. Cycle counts as measured on 400-row
// products at 25-90 % zeros: the tile wins up to 64 columns at every density
// that occurs in training; compaction wins on wide rows, from about half
// zeros at 172 columns (BenchmarkMatMul's guard_4000x256x172).
func compacts(a []float32, lda, ast, k, n int) bool {
	v := (n + 7) / 8
	if v <= 6 {
		return false
	}
	nz := 0
	for r := 0; r < 4; r++ {
		for kk := 0; kk < k; kk++ {
			nz += nonZero(a[r*lda+kk*ast])
		}
	}
	passes := n/32 + (n%32+15)/16
	return 5*passes*nz < 4*k*(v-6)
}

// row adds to d the terms of one output row over a panel, x(kk) * b(kk) for
// x(kk) = a[kk*ast], kk < k — with skip, only those whose x is not zero —
// compacted into the scratch and applied by terms.
func (s *scratch) row(d, a []float32, ast int, b []float32, ldb, k int, skip bool) {
	s.grow(k)
	idx, val := s.idx[:k], s.val[:k]
	nt := k
	if skip {
		nt = compact(idx, val, a, ast)
	} else {
		for kk := range idx {
			idx[kk], val[kk] = int32(kk), a[kk*ast]
		}
	}
	terms(d, b, ldb, idx[:nt], val[:nt])
}

// compact writes the terms kk < len(idx) whose x(kk) = a[kk*ast] is not zero
// to idx and val as (kk, x) pairs and returns their count. Every term is
// written and only a kept one counted: a branch on the zeros would
// mispredict on every dropout pattern.
func compact(idx []int32, val []float32, a []float32, ast int) int {
	val = val[:len(idx)]
	nt, o := 0, 0
	for kk := range idx {
		x := a[o]
		idx[nt], val[nt] = int32(kk), x
		nt += nonZero(x)
		o += ast
	}
	return nt
}

// nonZero is 1 if x is not ±0 (NaN included, as x != 0), else 0, without a
// branch.
func nonZero(x float32) int {
	n := 0
	if math.Float32bits(x)<<1 != 0 {
		n = 1
	}
	return n
}

// finite reports whether v holds no Inf and no NaN.
func finite(v []float32) bool {
	for _, x := range v {
		if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

func mulRows(s *scratch, dst, a, b *Dense, lo, hi int) {
	gemm(s, dst, a.V, a.C, 1, a.C, b, lo, hi, true)
}

func mulRowsAllTerms(s *scratch, dst, a, b *Dense, lo, hi int) {
	gemm(s, dst, a.V, a.C, 1, a.C, b, lo, hi, false)
}

func tmulRows(s *scratch, dst, a, b *Dense, lo, hi int) {
	gemm(s, dst, a.V, 1, a.C, a.R, b, lo, hi, true)
}

// mulColumn sets rows [lo, hi) of dst [m x 1] to a [m x K] times the column
// b [K x 1], the sums of four rows at a time in scalar registers. It adds
// every term: MatMulInto sends it only a finite b, and then a zero-a term
// adds ±0.
func mulColumn(_ *scratch, dst, a, b *Dense, lo, hi int) {
	K := a.C
	bv := b.V[:K]
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.V[i*K:(i+1)*K], a.V[(i+1)*K:(i+2)*K], a.V[(i+2)*K:(i+3)*K], a.V[(i+3)*K:(i+4)*K]
		var s0, s1, s2, s3 float32
		for k, x := range bv {
			s0 += a0[k] * x
			s1 += a1[k] * x
			s2 += a2[k] * x
			s3 += a3[k] * x
		}
		dst.V[i], dst.V[i+1], dst.V[i+2], dst.V[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		ar := a.V[i*K : (i+1)*K]
		var s0 float32
		for k, x := range bv {
			s0 += ar[k] * x
		}
		dst.V[i] = s0
	}
}

// tmulColumn sets rows [lo, hi) of dst [m x 1] to those of aᵀ·b for a
// [K x m] and the column b [K x 1]: one row of hi-lo columns whose terms are
// b[k] * (row k of a), through terms. It adds every term, for the reason of
// mulColumn: TMatMulInto sends it only a finite b.
func tmulColumn(s *scratch, dst, a, b *Dense, lo, hi int) {
	K := a.R
	d := dst.V[lo:hi]
	clear(d)
	if K == 0 {
		return
	}
	s.grow(K)
	for k := range s.idx[:K] {
		s.idx[k] = int32(k)
	}
	terms(d, a.V[lo:], a.C, s.idx[:K], b.V[:K])
}

// MatMulInto sets dst = a [m x k] * b [k x n].
func MatMulInto(dst, a, b *Dense) {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul inner dims %d vs %d", a.C, b.R))
	}
	if dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("tensor: matmul dst %dx%d for %dx%d", dst.R, dst.C, a.R, b.C))
	}
	kern := mulRows
	if b.C == 1 && finite(b.V) {
		kern = mulColumn
	}
	j := getJob()
	j.run(kern, dst, a, b, a.R, a.R*a.C*b.C)
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
// output rows (columns of a), reading a in place.
func TMatMulInto(dst, a, b *Dense) {
	if a.R != b.R {
		panic(fmt.Sprintf("tensor: tmatmul outer dims %d vs %d", a.R, b.R))
	}
	if dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("tensor: tmatmul dst %dx%d for %dx%d", dst.R, dst.C, a.C, b.C))
	}
	kern := tmulRows
	if b.C == 1 && finite(b.V) {
		kern = tmulColumn
	}
	j := getJob()
	j.run(kern, dst, a, b, a.C, a.R*a.C*b.C)
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
