package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"wholegraph/internal/xrand"
)

// specials are the float32 bit patterns the element-wise contract is about:
// both zeros, both infinities, quiet and signalling NaNs of either sign, the
// smallest and largest denormals, and ordinary values around them.
var specials = []uint32{
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00001, 0x7f800001, 0xffbfffff,
	0x00000001, 0x807fffff, 0x00800000, 0x80800000,
	0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff,
}

// floatsFrom decodes up to 67 float32 bit patterns from fuzz bytes: past two
// vector widths plus every tail length.
func floatsFrom(data []byte) []float32 {
	n := min(len(data)/4, 67)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out
}

// seedBytes is a corpus entry of n elements: the specials in rotation,
// every third element an ordinary random value.
func seedBytes(n int, rng *rand.Rand) []byte {
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		bits := specials[(i+n)%len(specials)]
		if i%3 == 2 {
			bits = math.Float32bits(float32(rng.NormFloat64()))
		}
		binary.LittleEndian.PutUint32(out[4*i:], bits)
	}
	return out
}

const guardBits = 0xc640e600 // -12345.5

// placed copies vals into a fresh guard-filled array at element offset off,
// so that the operand is not 32-byte aligned and writes outside it show.
func placed(vals []float32, off, n int) []float32 {
	back := make([]float32, off+n+9)
	for i := range back {
		back[i] = math.Float32frombits(guardBits)
	}
	copy(back[off:off+n], vals)
	return back
}

func exactBits(got, want float32) bool { return math.Float32bits(got) == math.Float32bits(want) }

// requireBits compares two arrays element by element: with exactBits for the
// selects (which copy bits), with sameBits where an add or multiply may pick
// either operand's NaN payload.
func requireBits(t *testing.T, what string, got, want []float32, eq func(got, want float32) bool) {
	t.Helper()
	for i := range want {
		if !eq(got[i], want[i]) {
			t.Fatalf("%s: element %d = %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// onBothPaths runs op (which writes into the array it is handed at [off,
// off+n)) once through the AVX prefix and once through the Go loop alone and
// requires identical backing arrays, guard words included.
func onBothPaths(t *testing.T, what string, eq func(got, want float32) bool, dst []float32, op func(d []float32)) {
	t.Helper()
	if !haveAVX {
		t.Skip("no AVX on this CPU")
	}
	defer func() { haveAVX = true }()
	avx := append([]float32(nil), dst...)
	op(avx)
	haveAVX = false
	ref := append([]float32(nil), dst...)
	op(ref)
	haveAVX = true
	requireBits(t, what, avx, ref, eq)
}

func addSeeds(f *testing.F, operands int) {
	rng := rand.New(rand.NewSource(16))
	for n := 0; n <= 67; n++ {
		args := []any{}
		for i := 0; i < operands; i++ {
			args = append(args, seedBytes(n, rng))
		}
		f.Add(append(args, uint8(n))...)
	}
}

func FuzzReLU(f *testing.F) {
	addSeeds(f, 1)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		a := floatsFrom(data)
		n, o := len(a), int(off%8)
		src := placed(a, o+1, n)[o+1 : o+1+n]
		onBothPaths(t, "relu", exactBits, placed(nil, o, n), func(d []float32) { relu(d[o:o+n], src) })
		// In place, as autograd's replay may alias.
		onBothPaths(t, "relu in place", exactBits, placed(a, o, n), func(d []float32) { relu(d[o:o+n], d[o:o+n]) })
	})
}

func FuzzReLUGrad(f *testing.F) {
	addSeeds(f, 2)
	f.Fuzz(func(t *testing.T, adata, gdata []byte, off uint8) {
		a, g := floatsFrom(adata), floatsFrom(gdata)
		n, o := min(len(a), len(g)), int(off%8)
		as := placed(a, o+1, n)[o+1 : o+1+n]
		gs := placed(g, o+2, n)[o+2 : o+2+n]
		onBothPaths(t, "reluGrad", exactBits, placed(nil, o, n), func(d []float32) { reluGrad(d[o:o+n], as, gs) })
	})
}

func FuzzAxpy(f *testing.F) {
	addSeeds(f, 2)
	f.Fuzz(func(t *testing.T, ddata, xdata []byte, off uint8) {
		d, x := floatsFrom(ddata), floatsFrom(xdata)
		n, o := min(len(d), len(x)), int(off%8)
		xs := placed(x, o+3, n)[o+3 : o+3+n]
		for _, bits := range []uint32{0x3fc00000, 0x80000000, 0x7f800000, 0x7fc00000, 0x00000003, uint32(off) << 20} {
			a := math.Float32frombits(bits)
			onBothPaths(t, "axpy", sameBits, placed(d, o, n), func(d []float32) { Axpy(d[o:o+n], xs, a) })
		}
	})
}

// TestEltwiseValueContract pins the selects of ops.go to their written
// contract on both paths: the unselected side is +0, never -0 or NaN.
func TestEltwiseValueContract(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		f := math.Float32frombits
		nan, negZero, denorm, inf := f(0x7fc00000), f(0x80000000), f(0x00000001), f(0x7f800000)
		// Ten elements: one vector and a tail of two see every case.
		a := []float32{nan, negZero, denorm, -denorm, inf, -inf, 2, -2, nan, negZero}
		want := []float32{0, 0, denorm, 0, inf, 0, 2, 0, 0, 0}
		got := make([]float32, len(a))
		relu(got, a)
		requireBits(t, "relu", got, want, exactBits)

		g := []float32{1, 2, nan, 4, negZero, 6, -inf, 8, 9, 10}
		want = []float32{0, 0, nan, 0, negZero, 0, -inf, 0, 0, 0}
		reluGrad(got, a, g)
		requireBits(t, "reluGrad", got, want, exactBits)

		m := []float32{2, 0, 2, negZero, 0, 2, 2, 0, 0, 2}
		want = []float32{nan, 0, 2 * denorm, 0, 0, -inf, 4, 0, 0, negZero}
		maskMul(got, a, m)
		requireBits(t, "maskMul", got, want, exactBits)
	})
}

// TestDropoutIntoMatchesBranchLoop holds DropoutInto — mask draw, then the
// branch-free mask product — to the one-loop form it replaced: the same
// uniforms consumed in the same order, the same mask, the same output bits,
// for every length through two vector widths and on hostile inputs.
func TestDropoutIntoMatchesBranchLoop(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for n := 0; n <= 40; n++ {
			for _, p := range []float32{0.5, 0.3, 1} {
				a, dst, mask := New(1, n), New(1, n), New(1, n)
				src := rand.New(rand.NewSource(int64(n)))
				for i := range a.V {
					a.V[i] = math.Float32frombits(specials[src.Intn(len(specials))])
				}
				DropoutInto(dst, a, mask, p, xrand.New(9))

				rnd := rand.New(rand.NewSource(9)).Float32
				scale := 1 / (1 - p)
				wantDst, wantMask := make([]float32, n), make([]float32, n)
				for i, v := range a.V {
					if rnd() < p {
						wantMask[i], wantDst[i] = 0, 0
					} else {
						wantMask[i], wantDst[i] = scale, v*scale
					}
				}
				requireBits(t, "mask", mask.V, wantMask, exactBits)
				requireBits(t, "dst", dst.V, wantDst, exactBits)
			}
		}
	})
}

func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, d := New(96, 64), New(96, 64)
	for i := range a.V {
		a.V[i] = float32(rng.NormFloat64())
	}
	for _, path := range []struct {
		name string
		avx  bool
	}{{"avx", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.avx && !haveAVX {
				b.Skip("no AVX on this CPU")
			}
			defer func(v bool) { haveAVX = v }(haveAVX)
			haveAVX = path.avx
			b.SetBytes(int64(4 * len(a.V)))
			for i := 0; i < b.N; i++ {
				ReLUInto(d, a)
			}
		})
	}
}

// BenchmarkDropoutInto times one dropout of a [1408 x 64] activation — a
// hidden layer of a 512-target batch — at p = 0.5 and reports ns per
// element: the draw, the keep mask and the mask product.
func BenchmarkDropoutInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, d, mask := New(1408, 64), New(1408, 64), New(1408, 64)
	for i := range a.V {
		a.V[i] = float32(rng.NormFloat64())
	}
	src := xrand.New(1)
	b.SetBytes(int64(4 * len(a.V)))
	for i := 0; i < b.N; i++ {
		DropoutInto(d, a, mask, 0.5, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(a.V)), "ns/elem")
}
