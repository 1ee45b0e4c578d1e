package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wholegraph/internal/sim"
)

// The three loops the kernels replaced, kept verbatim as the reference: they
// define the summation order every product is pinned to, bit for bit.

func refMatMulInto(dst, a, b *Dense) {
	dst.Zero()
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

func refMatMulTInto(dst, a, b *Dense) {
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := 0; j < b.R; j++ {
			br := b.Row(j)
			var sum float32
			for k, av := range ar {
				sum += av * br[k]
			}
			dr[j] = sum
		}
	}
}

func refTMatMulInto(dst, a, b *Dense) {
	dst.Zero()
	for k := 0; k < a.R; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			dr := dst.Row(i)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// kernelCase is one driver with its reference and the operand shapes it
// takes for an [m x k]·[k x n] product.
type kernelCase struct {
	name     string
	got, ref func(dst, a, b *Dense)
	aT, bT   bool // operand is passed transposed
}

var kernelCases = []kernelCase{
	{name: "MatMul", got: MatMulInto, ref: refMatMulInto},
	{name: "MatMulT", got: MatMulTInto, ref: refMatMulTInto, bT: true},
	{name: "TMatMul", got: TMatMulInto, ref: refTMatMulInto, aT: true},
}

// operands builds a [m x k] and b [k x n] (each stored transposed when the
// driver wants it so) from logical fill functions.
func (kc kernelCase) operands(m, k, n int, fa, fb func(i, j int) float32) (a, b *Dense) {
	a, b = New(m, k), New(k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			a.Set(i, j, fa(i, j))
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, fb(i, j))
		}
	}
	if kc.aT {
		a = Transpose(a)
	}
	if kc.bT {
		b = Transpose(b)
	}
	return a, b
}

// sameBits reports whether two results have the same bit pattern, NaN
// payloads aside (which operand's payload an add propagates is the
// compiler's choice).
func sameBits(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) ||
		math.IsNaN(float64(got)) && math.IsNaN(float64(want))
}

func (kc kernelCase) check(t *testing.T, what string, a, b *Dense, m, n int) {
	t.Helper()
	want, got := New(m, n), New(m, n)
	kc.ref(want, a, b)
	for i := range got.V {
		got.V[i] = float32(math.NaN()) // the kernel must overwrite, not accumulate
	}
	kc.got(got, a, b)
	for i := range want.V {
		if !sameBits(got.V[i], want.V[i]) {
			t.Fatalf("%s %s %v·%v [%d] = %g (%#08x), want %g (%#08x)", kc.name, what,
				[2]int{a.R, a.C}, [2]int{b.R, b.C}, i,
				got.V[i], math.Float32bits(got.V[i]), want.V[i], math.Float32bits(want.V[i]))
		}
	}
}

// bothKernels runs a kernel test twice: with the kernels' assembly (where the
// CPU has AVX) and with the pure-Go loops alone.
func bothKernels(t *testing.T, test func(t *testing.T)) {
	defer func(v bool) { haveAVX = v }(haveAVX)
	t.Run("avx", func(t *testing.T) {
		if !haveAVX {
			t.Skip("no AVX on this CPU")
		}
		test(t)
	})
	haveAVX = false
	t.Run("go", test)
}

// TestAxpyVectorMatchesScalar pins the assembly to the Go loops it stands in
// for, bit for bit: every n through four vector widths and all tails,
// operands at odd element offsets (so nothing is 32-byte aligned), b rows
// longer than d, the tile over both a layouts with and without zero
// skipping, the terms form over repeated and unordered rows, denormals,
// signed zeros, infinities and NaNs in every operand. Whole backing arrays
// are compared: the Go loops are bounds-checked and cannot write outside
// their rows, so equality also shows the assembly leaves the guard words
// around them, the gaps between d rows and every a and b alone.
func TestAxpyVectorMatchesScalar(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this CPU")
	}
	defer func() { haveAVX = true }()
	rng := rand.New(rand.NewSource(15))
	randn := func() float32 { return float32(rng.NormFloat64()) }
	tiny := func() float32 { return randn() * 1e-30 * float32(math.Pow(10, -float64(rng.Intn(12)))) }
	mixed := func() float32 {
		switch rng.Intn(10) {
		case 0:
			return float32(math.Copysign(0, -1))
		case 1:
			return 0
		case 2:
			return float32(math.Inf(1))
		case 3:
			return float32(math.Inf(-1))
		case 4:
			return float32(math.NaN())
		case 5:
			return tiny()
		}
		return randn()
	}
	const guard = -12345.5
	// operand returns a guard-filled array with size generated values
	// starting at element off.
	operand := func(off, size int, gen func() float32) []float32 {
		back := make([]float32, off+size+9)
		for i := range back {
			back[i] = guard
		}
		for i := off; i < off+size; i++ {
			back[i] = gen()
		}
		return back
	}
	// A kernel builds its operands for n columns — backing arrays whose data
	// starts at off — and a run over copies of them.
	const off = 3
	type kernel struct {
		name  string
		build func(n int, gen func() float32) (backs [][]float32, run func(ops [][]float32))
	}
	tile := func(name string, rowMajor, skip bool) kernel {
		return kernel{name, func(n int, gen func() float32) ([][]float32, func([][]float32)) {
			k := 1 + rng.Intn(6)
			ldd, ldb := n+3, n+5
			lda, ast, asize := k+2, 1, 3*(k+2)+k // MatMulInto's a
			if !rowMajor {
				lda, ast, asize = 1, 7, 4+(k-1)*7 // TMatMulInto's
			}
			d := operand(off, 3*ldd+n, gen)
			if skip {
				// Sums the drivers hand the tile are never -0 (matmul.go).
				for i, v := range d[off:] {
					if v == 0 {
						d[off+i] = 0
					}
				}
			}
			backs := [][]float32{d, operand(off, asize, gen), operand(off, (k-1)*ldb+n, gen)}
			return backs, func(ops [][]float32) {
				tile4(new(scratch), ops[0][off:], ldd, ops[1][off:], lda, ast, ops[2][off:], ldb, k, n, skip)
			}
		}}
	}
	kernels := []kernel{
		{"axpy1", func(n int, gen func() float32) ([][]float32, func([][]float32)) {
			a := gen()
			return [][]float32{operand(off, n, gen), operand(off, n+5, gen)}, func(ops [][]float32) {
				axpy1(ops[0][off:off+n], ops[1][off:], a)
			}
		}},
		tile("tile4 rows", true, false),
		tile("tile4 rows skip", true, true),
		tile("tile4 columns", false, false),
		tile("tile4 columns skip", false, true),
		{"terms", func(n int, gen func() float32) ([][]float32, func([][]float32)) {
			const rows = 7
			ldb := n + 2
			idx, val := make([]int32, 1+rng.Intn(9)), make([]float32, 0, 9)
			for i := range idx {
				idx[i] = int32(rng.Intn(rows))
				val = append(val, gen())
			}
			return [][]float32{operand(off, n, gen), operand(off, (rows-1)*ldb+n, gen)}, func(ops [][]float32) {
				terms(ops[0][off:off+n], ops[1][off:], ldb, idx, val)
			}
		}},
	}
	gens := []struct {
		name string
		gen  func() float32
	}{{"normal", randn}, {"denormal", tiny}, {"mixed", mixed}}
	for _, k := range kernels {
		for _, g := range gens {
			for n := 0; n <= 72; n++ {
				backs, run := k.build(n, g.gen)
				on := func(avx bool) [][]float32 {
					ops := make([][]float32, len(backs))
					for i, back := range backs {
						ops[i] = append([]float32(nil), back...)
					}
					haveAVX = avx
					run(ops)
					return ops
				}
				want, got := on(false), on(true)
				for i := range want {
					for j := range want[i] {
						if !sameBits(got[i][j], want[i][j]) {
							t.Fatalf("%s %s n=%d: operand %d element %d (data from %d) = %g (%#08x), Go %g (%#08x)",
								k.name, g.name, n, i, j, off, got[i][j], math.Float32bits(got[i][j]),
								want[i][j], math.Float32bits(want[i][j]))
						}
					}
				}
			}
		}
	}
}

// TestKernelsBitIdentical pins all three drivers to the reference loops over
// every block tail, zero pattern and special value, at several worker counts.
// Non-finite inputs included: the kernels visit exactly the terms the loops
// did, so an Inf or NaN lands in the same outputs.
func TestKernelsBitIdentical(t *testing.T) { bothKernels(t, testKernelsBitIdentical) }

func testKernelsBitIdentical(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	defer smallCutoff()()
	rng := rand.New(rand.NewSource(13))
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())

	randn := func(int, int) float32 { return float32(rng.NormFloat64()) }
	sparse := func(i, j int) float32 { // ReLU + dropout: ~75 % zeros
		if rng.Intn(4) != 0 {
			return 0
		}
		return randn(i, j)
	}
	zeroLines := func(i, j int) float32 { // all-zero rows and columns
		if i%3 == 1 || j%5 == 2 {
			return 0
		}
		return randn(i, j)
	}
	signedZeros := func(i, j int) float32 { // -0 among zeros and values
		switch rng.Intn(4) {
		case 0:
			return negZero
		case 1:
			return 0
		}
		return randn(i, j)
	}
	tiny := func(i, j int) float32 { // denormals, and products that underflow to ±0
		return float32(rng.NormFloat64()) * 1e-30 * float32(math.Pow(10, -float64(rng.Intn(12))))
	}
	oneZeroPerGroup := func(i, j int) float32 { // one zero in each four rows, at every k
		if i%4 == j%4 {
			return 0
		}
		return randn(i, j)
	}
	withSpecials := func(base func(i, j int) float32) func(i, j int) float32 {
		return func(i, j int) float32 {
			switch rng.Intn(24) {
			case 0:
				return inf
			case 1:
				return -inf
			case 2:
				return nan
			}
			return base(i, j)
		}
	}
	patterns := []struct {
		name   string
		fa, fb func(i, j int) float32
	}{
		{"dense", randn, randn},
		{"sparse-a", sparse, randn},
		{"sparse-both", sparse, sparse},
		{"zero-lines", zeroLines, zeroLines},
		{"signed-zeros", signedZeros, signedZeros},
		{"denormal", tiny, tiny},
		{"denormal-a", tiny, randn},
		{"nonfinite-b", sparse, withSpecials(randn)},
		{"nonfinite-a", withSpecials(sparse), randn},
		{"nonfinite-both", withSpecials(signedZeros), withSpecials(sparse)},
		{"one-zero-per-group", oneZeroPerGroup, randn},
		{"one-zero-per-group-nonfinite-b", oneZeroPerGroup, withSpecials(randn)},
	}

	// Empty dimensions, n = 1, and rows 1-9 (across the tile's four) by
	// widths across its 16-column strip, the terms form's 32 and the
	// compaction cut at 48. These all run below the serial cut-off.
	shapes := [][3]int{
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0}, {1, 1, 1}, {2, 4, 1}, {7, 9, 1},
		{1, 5, 3}, {2, 3, 2}, {3, 4, 5}, {4, 8, 4}, {5, 7, 3}, {6, 13, 7}, {9, 6, 16},
		{13, 17, 11}, {16, 16, 16}, {33, 10, 9}, {128, 1, 16}, {400, 16, 1}, {41, 131, 19},
	}
	for m := 1; m <= 9; m++ {
		for _, n := range []int{15, 16, 17, 31, 33, 47, 63, 64, 65, 172} {
			shapes = append(shapes, [3]int{m, 1 + rng.Intn(12), n})
		}
	}
	for s := 0; s < 8; s++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(24)})
	}
	for _, kc := range kernelCases {
		for _, sh := range shapes {
			for _, p := range patterns {
				a, b := kc.operands(sh[0], sh[1], sh[2], p.fa, p.fb)
				kc.check(t, p.name, a, b, sh[0], sh[2])
			}
		}
	}

	// K over two and more k panels (panelK), sums carried from one to the
	// next through d, on the tile, on compacted wide rows and on the n = 1
	// products.
	for _, kc := range kernelCases {
		for _, sh := range [][3]int{{5, 200, 172}, {5, 300, 64}, {6, 400, 47}, {5, 1100, 16}, {6, 1030, 1}} {
			if sh[1] <= panelK(sh[2]) && sh[2] > 1 {
				t.Fatalf("%v fits one panel of %d", sh, panelK(sh[2]))
			}
			for _, p := range []int{0, 1, 7, 10, 11} { // dense, sparse, non-finite b, one zero per group
				a, b := kc.operands(sh[0], sh[1], sh[2], patterns[p].fa, patterns[p].fb)
				kc.check(t, "panels "+patterns[p].name, a, b, sh[0], sh[2])
			}
		}
	}

	// Past the cut-off rows really are split, evenly or not, and every
	// worker count must give the same bits.
	for _, kc := range kernelCases {
		for _, sh := range [][3]int{{151, 70, 51}, {34000, 16, 1}, {29, 120, 172}} {
			for _, p := range patterns[:2] {
				a, b := kc.operands(sh[0], sh[1], sh[2], p.fa, p.fb)
				for _, w := range []int{1, 2, 3, 8} {
					SetWorkers(w)
					kc.check(t, fmt.Sprintf("%s w=%d", p.name, w), a, b, sh[0], sh[2])
				}
			}
		}
	}
}

// FuzzMatMul holds the three drivers to the reference loops, on the assembly
// and on the Go loops, at shapes and float32 bit patterns the fuzzer picks:
// rows across the tile's four, columns across its 16-column strips and the
// compaction cut, K across k panels, a zero pattern set by zeros, and values
// decoded from raw bits, so -0, infinities, NaNs and denormals all occur.
func FuzzMatMul(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	for _, sh := range [][4]int{{1, 1, 1, 0}, {4, 16, 16, 0}, {5, 100, 47, 6}, {9, 33, 172, 6}, {3, 7, 1, 2}, {8, 290, 65, 4}} {
		f.Add(uint8(sh[0]), uint16(sh[1]), uint8(sh[2]), uint8(sh[3]), seedBytes(67, rng))
	}
	f.Fuzz(func(t *testing.T, m uint8, k uint16, n uint8, zeros uint8, data []byte) {
		vals := floatsFrom(data)
		if len(vals) == 0 {
			return
		}
		M, K, N := int(m%13), int(k%300), int(n%180)
		fa := func(i, j int) float32 {
			if (7*i+3*j)%8 < int(zeros%9) {
				return 0
			}
			return vals[(i*K+j)%len(vals)]
		}
		fb := func(i, j int) float32 { return vals[(i*N+j+len(vals)/2)%len(vals)] }
		defer func(v bool) { haveAVX = v }(haveAVX)
		for _, avx := range []bool{haveAVX, false} {
			haveAVX = avx
			for _, kc := range kernelCases {
				a, b := kc.operands(M, K, N, fa, fb)
				kc.check(t, fmt.Sprintf("avx=%v", avx), a, b, M, N)
			}
		}
	})
}

// smallCutoff lowers minParallelWork to the 2^19 multiply-adds these tests'
// pooled shapes were sized for, so they reach the pool without multiplying
// matrices of the production cut-off's size under the race detector. The
// returned function restores it.
func smallCutoff() func() {
	prev := minParallelWork
	minParallelWork = 1 << 19
	return func() { minParallelWork = prev }
}

// TestKernelsParallelAboveCutoff guards the test above against vacuity: its
// larger shapes must actually take the pooled path.
func TestKernelsParallelAboveCutoff(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	defer smallCutoff()()
	var mu sync.Mutex
	var ranges [][2]int
	record := func(_ *scratch, _, _, _ *Dense, lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	}
	j := getJob()
	defer putJob(j)
	j.run(record, nil, nil, nil, 151, 151*70*51)
	if len(ranges) != 3 {
		t.Fatalf("151x70x51 ran as %d ranges at 3 workers, want 3", len(ranges))
	}
	ranges = ranges[:0]
	j.run(record, nil, nil, nil, 10000, minParallelWork-1)
	if len(ranges) != 1 || ranges[0] != [2]int{0, 10000} {
		t.Fatalf("below the work cut-off ran as %v, want one inline range", ranges)
	}
}

func TestKernelShapePanics(t *testing.T) {
	cases := []struct {
		f         func(dst, a, b *Dense)
		dst, a, b *Dense
		want      string
	}{
		{MatMulInto, New(2, 2), New(2, 3), New(4, 2), "tensor: matmul inner dims 3 vs 4"},
		{MatMulInto, New(2, 3), New(2, 3), New(3, 2), "tensor: matmul dst 2x3 for 2x2"},
		{MatMulTInto, New(2, 2), New(2, 3), New(2, 4), "tensor: matmulT inner dims 3 vs 4"},
		{MatMulTInto, New(3, 2), New(2, 3), New(2, 3), "tensor: matmulT dst 3x2 for 2x2"},
		{TMatMulInto, New(3, 2), New(2, 3), New(4, 2), "tensor: tmatmul outer dims 2 vs 4"},
		{TMatMulInto, New(2, 2), New(2, 3), New(2, 2), "tensor: tmatmul dst 2x2 for 3x2"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("panic %v, want %q", r, c.want)
				}
			}()
			c.f(c.dst, c.a, c.b)
		}()
	}
}

// denseOperands returns a destination and seeded random operands for an
// [m x k]·[k x n] product whose a is zero with probability zeroFrac.
func denseOperands(kc kernelCase, m, k, n int, zeroFrac float64, seed int64) (dst, a, b *Dense) {
	rng := rand.New(rand.NewSource(seed))
	fa := func(int, int) float32 {
		if rng.Float64() < zeroFrac {
			return 0
		}
		return float32(rng.NormFloat64())
	}
	fb := func(int, int) float32 { return float32(rng.NormFloat64()) }
	a, b = kc.operands(m, k, n, fa, fb)
	return New(m, n), a, b
}

// TestKernelsAllocFree checks that a warm kernel call allocates nothing,
// serial or pooled, on every path: the tile, its masked rerun, tail rows and
// compacted wide rows through the terms form, k panels, and the n = 1
// products. Tasks are values, job records and scratch are recycled.
func TestKernelsAllocFree(t *testing.T) { bothKernels(t, testKernelsAllocFree) }

func testKernelsAllocFree(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	defer smallCutoff()()
	for _, sh := range []struct {
		m, k, n   int
		zeroFrac  float64
		nonfinite bool // an Inf in b: the tile's masked rerun
	}{
		{260, 64, 32, 0.5, false}, // past the serial cut-off
		{260, 64, 32, 0.5, true},
		{34, 100, 172, 0.75, false}, // compacted rows, two k panels, a partial strip, tail rows
		{261, 64, 1, 0.5, false},    // the n = 1 products
	} {
		for _, kc := range kernelCases {
			dst, a, b := denseOperands(kc, sh.m, sh.k, sh.n, sh.zeroFrac, 3)
			if sh.nonfinite {
				b.V[0] = float32(math.Inf(1))
			}
			for _, w := range []int{1, 2} {
				SetWorkers(w)
				kc.got(dst, a, b) // warm: pool, job record, scratch
				if n := testing.AllocsPerRun(20, func() { kc.got(dst, a, b) }); n != 0 {
					t.Errorf("%s %dx%dx%d at %d workers: %.0f allocs per call, want 0", kc.name, sh.m, sh.k, sh.n, w, n)
				}
			}
		}
	}
}

// TestKernelsConcurrentCallers drives the shared pool from many goroutines
// at once — plain ones and sim.RunParallel slots, the shape training under
// RealWorkers = 4 produces — and checks every result against serial.
func TestKernelsConcurrentCallers(t *testing.T) { bothKernels(t, testKernelsConcurrentCallers) }

func testKernelsConcurrentCallers(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	defer smallCutoff()()
	type problem struct {
		kc        kernelCase
		a, b      *Dense
		want, got *Dense
	}
	const callers = 4
	var probs []*problem
	for c := 0; c < callers; c++ {
		for _, kc := range kernelCases {
			m, k, n := 260+7*c, 64+c, 32+c // past the serial cut-off
			dst, a, b := denseOperands(kc, m, k, n, 0.5, int64(c))
			kc.got(dst, a, b)
			probs = append(probs, &problem{kc, a, b, dst, New(m, n)})
		}
	}
	SetWorkers(4)
	per := len(kernelCases)
	slot := func(c int) {
		for rep := 0; rep < 8; rep++ {
			for _, p := range probs[c*per : (c+1)*per] {
				p.kc.got(p.got, p.a, p.b)
				for i := range p.want.V {
					if math.Float32bits(p.got.V[i]) != math.Float32bits(p.want.V[i]) {
						t.Errorf("caller %d %s: element %d differs from serial", c, p.kc.name, i)
						return
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			slot(c)
		}(c)
	}
	wg.Wait()
	defer sim.SetParallel(sim.SetParallel(true))
	sim.RunParallel(callers, slot)
}

// TestKernelsSaturatedQueue parks every pool worker and fills the task queue,
// then checks that kernel calls still complete (each range falls back to the
// submitter) and are correct.
func TestKernelsSaturatedQueue(t *testing.T) { bothKernels(t, testKernelsSaturatedQueue) }

func testKernelsSaturatedQueue(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	defer smallCutoff()()
	startPool()
	gate := make(chan struct{})
	blocker := getJob()
	blocker.kern = func(*scratch, *Dense, *Dense, *Dense, int, int) { <-gate }
	// One task per worker to park on plus a full queue behind them; the
	// sends complete exactly when every worker is parked.
	parked := runtime.NumCPU() + cap(pool.tasks)
	blocker.wg.Add(parked)
	for i := 0; i < parked; i++ {
		pool.tasks <- task{blocker, 0, 0}
	}
	for _, kc := range kernelCases {
		dst, a, b := denseOperands(kc, 260, 64, 32, 0.5, 5)
		kc.check(t, "saturated", a, b, dst.R, dst.C)
	}
	close(gate)
	blocker.wg.Wait()
	blocker.kern = nil
	putJob(blocker)
}

// TestRunBalancedCoverage checks that the row ranges of a pooled call tile
// [0, rows) exactly once, start on the tile's four-row boundary, and differ
// in size by at most one group of four.
func TestRunBalancedCoverage(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	j := getJob()
	defer putJob(j)
	for _, w := range []int{2, 3, 7, 8} {
		for _, n := range []int{1, w - 1, w, 4*w + 1, 4*w + 3, 97, 128} {
			SetWorkers(w)
			var mu sync.Mutex
			covered := make([]int, n)
			var sizes []int
			j.run(func(_ *scratch, _, _, _ *Dense, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if lo%4 != 0 {
					t.Errorf("w=%d n=%d: range [%d, %d) off the four-row boundary", w, n, lo, hi)
				}
				sizes = append(sizes, hi-lo)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}, nil, nil, nil, n, minParallelWork)
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("w=%d n=%d: row %d covered %d times", w, n, i, c)
				}
			}
			mn, mx := sizes[0], sizes[0]
			for _, s := range sizes {
				mn, mx = min(mn, s), max(mx, s)
			}
			if mx-mn > 4 || mn == 0 || len(sizes) != min(w, (n+3)/4) {
				t.Fatalf("w=%d n=%d: range sizes %v not balanced", w, n, sizes)
			}
		}
	}
}

// BenchmarkMatMul times the three dense kernels of one linear layer —
// forward Y = X·W, input gradient dX = dY·Wᵀ, weight gradient dW = Xᵀ·dY,
// 2·m·k·n FLOPs each, skipped zero terms included — at the shapes the
// benchmark/ workloads run them, on the assembly (/avx) and on the Go loops
// (/go). The gat_ rows are train_sched_2node's: a head's projection of the
// sampled layer-0 nodes, the 47-class output heads over dropout-zeroed
// hidden rows, and an attention score (X·W with n = 1, whose dY·Wᵀ is an
// outer product and whose Xᵀ·dY has one column). The guard_ rows are
// paper-scale shapes the tiling must not slow: a tall Xᵀ·dY that needs k
// panels and a wide, 75 %-sparse layer that needs compaction.
func BenchmarkMatMul(b *testing.B) {
	defer func(v bool) { haveAVX = v }(haveAVX)
	cpuAVX := haveAVX
	shapes := []struct {
		name     string
		m, k, n  int
		zeroFrac float64 // share of X that ReLU + dropout zeroed
	}{
		{"sage0_1408x200x64", 1408, 200, 64, 0},
		{"sage1_128x128x47", 128, 128, 47, 0.75},
		{"gat_10000x100x16", 10000, 100, 16, 0},
		{"serve_300x200x64", 300, 200, 64, 0},
		{"gat_head_1850x100x16", 1850, 100, 16, 0},
		{"gat_out_400x64x47", 400, 64, 47, 0.75},
		{"gat_attn_1850x16x1", 1850, 16, 1, 0},
		{"guard_20000x100x64", 20000, 100, 64, 0},
		{"guard_4000x256x172", 4000, 256, 172, 0.75},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(4))
		x := Randn(sh.m, sh.k, 1, rng)
		for i := range x.V {
			if rng.Float64() < sh.zeroFrac {
				x.V[i] = 0
			}
		}
		w := Randn(sh.k, sh.n, 1, rng)
		dy := Randn(sh.m, sh.n, 1, rng)
		y, dx, dw := New(sh.m, sh.n), New(sh.m, sh.k), New(sh.k, sh.n)
		kernels := []struct {
			name string
			run  func()
		}{
			{"MatMul", func() { MatMulInto(y, x, w) }},
			{"MatMulT", func() { MatMulTInto(dx, dy, w) }},
			{"TMatMul", func() { TMatMulInto(dw, x, dy) }},
		}
		for _, kn := range kernels {
			for _, avx := range []bool{true, false} {
				path := "go"
				if avx {
					path = "avx"
				}
				b.Run(kn.name+"/"+sh.name+"/"+path, func(b *testing.B) {
					if avx && !cpuAVX {
						b.Skip("no AVX on this CPU")
					}
					haveAVX = avx
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						kn.run()
					}
					flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkPoolCrossover is what minParallelWork was sized with: the forward
// product of an [m x 128] by [128 x 64] layer run on the calling goroutine
// (/inline) and split over two pool workers (/pooled), by multiply-add
// count. The pool wins from the size at which /pooled drops below /inline;
// run it with -cpu 2 (at -cpu 1 the pool can only lose).
func BenchmarkPoolCrossover(b *testing.B) {
	defer SetWorkers(SetWorkers(2))
	const k, n = 128, 64
	for _, m := range []int{32, 64, 128, 256, 384, 512, 768, 1024, 2048} {
		rng := rand.New(rand.NewSource(int64(m)))
		x, w, y := Randn(m, k, 1, rng), Randn(k, n, 1, rng), New(m, n)
		for _, mode := range []struct {
			name string
			work int // what job.run is told the product costs
		}{{"inline", 0}, {"pooled", minParallelWork}} {
			b.Run(fmt.Sprintf("%s/madds=2^%.1f", mode.name, math.Log2(float64(m*k*n))), func(b *testing.B) {
				j := getJob()
				defer putJob(j)
				for i := 0; i < b.N; i++ {
					j.run(mulRows, y, x, w, m, mode.work)
				}
			})
		}
	}
}
