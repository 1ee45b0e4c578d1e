package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// adamCoef is the coefficients of Adam step t at nn.NewAdam's decays and
// epsilon and the given learning rate.
func adamCoef(t int, lr float64) *AdamCoef {
	b1, b2 := float32(0.9), float32(0.999)
	return &AdamCoef{
		B1: b1, C1: 1 - b1, B2: b2, C2: 1 - b2,
		BC1: 1 - math.Pow(0.9, float64(t)), BC2: 1 - math.Pow(0.999, float64(t)),
		LR: lr, Eps: 1e-8,
	}
}

// adamOnBothPaths applies AdamStep to copies of w, m and v placed at element
// offset off in guard-filled arrays (so nothing is 32-byte aligned and
// writes outside the operands show), once through the AVX prefix and once
// through the Go loop alone, and requires the same arrays, guard words
// included; NaNs match whatever their payloads, since either operand's may
// come out of a commutative operation. It returns the Go loop's operands.
func adamOnBothPaths(t *testing.T, what string, w, m, v, g []float32, off int, k *AdamCoef) (gw, gm, gv []float32) {
	t.Helper()
	n := len(w)
	gs := placed(g, off+3, n)[off+3 : off+3+n]
	run := func(avx bool) [3][]float32 {
		defer func(v bool) { haveAVX = v }(haveAVX)
		haveAVX = avx
		out := [3][]float32{placed(w, off, n), placed(m, off+1, n), placed(v, off+2, n)}
		AdamStep(out[0][off:off+n], out[1][off+1:off+1+n], out[2][off+2:off+2+n], gs, k)
		return out
	}
	ref := run(false)
	if haveAVX {
		avx := run(true)
		for i, name := range []string{"w", "m", "v"} {
			requireBits(t, what+": "+name, avx[i], ref[i], sameBits)
		}
	}
	return ref[0][off : off+n], ref[1][off+1 : off+1+n], ref[2][off+2 : off+2+n]
}

// TestAdamMatchesGo pins the AVX kernel to AdamStep's Go loop bit for bit,
// through 60 consecutive updates, on every length through two vector widths
// plus every tail, with gradients that are ±0, denormal, infinite or NaN
// among ordinary ones, tiny gradients whose squares underflow, and step
// counts from 1 to 10^4 (bias corrections from 0.1 to 1). The Go loop is in
// turn held to the expression nn.Adam.Step used before the kernel existed,
// written with its products rounded as GOAMD64=v1 rounds them.
func TestAdamMatchesGo(t *testing.T) {
	if !haveAVX {
		t.Log("no AVX on this CPU: the Go loop only")
	}
	rng := rand.New(rand.NewSource(7))
	gradSpecials := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000,
		0x7fc00000, 0x0da24260, // 1e-30
	}
	steps := []int{1, 2, 3, 4, 5, 10, 50, 100, 1000, 9999, 10000}
	for n := 0; n <= 67; n++ {
		w, m, v := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		for s := 0; s < 60; s++ {
			g := make([]float32, n)
			for i := range g {
				switch r := rng.Intn(10); {
				case r == 0 && s%20 == 19:
					// The specials poison an element's moments for good, so
					// they come late, and rarely.
					g[i] = math.Float32frombits(gradSpecials[rng.Intn(len(gradSpecials))])
				case r == 1:
					g[i] = 1e-30
				default:
					g[i] = float32(rng.NormFloat64() * 0.1)
				}
			}
			k := adamCoef(steps[s%len(steps)], 0.003)
			want := append([]float32(nil), w...)
			wm, wv := append([]float32(nil), m...), append([]float32(nil), v...)
			for i := range want {
				wm[i] = float32(k.B1*wm[i]) + float32((1-k.B1)*g[i])
				wv[i] = float32(k.B2*wv[i]) + float32(float32((1-k.B2)*g[i])*g[i])
				mh := float64(wm[i]) / k.BC1
				vh := float64(wv[i]) / k.BC2
				want[i] -= float32(k.LR * mh / (math.Sqrt(vh) + k.Eps))
			}
			w, m, v = adamOnBothPaths(t, "Adam", w, m, v, g, n%8, k)
			requireBits(t, "Go loop w", w, want, sameBits)
			requireBits(t, "Go loop m", m, wm, sameBits)
			requireBits(t, "Go loop v", v, wv, sameBits)
		}
	}
}

// FuzzAdam holds the kernel to the Go loop over arbitrary bits in w, m, v
// and g (negative second moments included), arbitrary lengths, offsets and
// step counts, for three consecutive updates.
func FuzzAdam(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 67; n++ {
		f.Add(seedBytes(n, rng), seedBytes(n, rng), seedBytes(n, rng), seedBytes(n, rng), uint16(n*151), uint8(n))
	}
	f.Fuzz(func(t *testing.T, wdata, mdata, vdata, gdata []byte, step uint16, off uint8) {
		w, m, v, g := floatsFrom(wdata), floatsFrom(mdata), floatsFrom(vdata), floatsFrom(gdata)
		n := min(len(w), len(m), len(v), len(g))
		w, m, v, g = w[:n], m[:n], v[:n], g[:n]
		for s := 0; s < 3; s++ {
			k := adamCoef(1+(int(step)+s)%10000, 0.003*float64(1+off%4))
			w, m, v = adamOnBothPaths(t, "Adam", w, m, v, g, int(off%8), k)
		}
	})
}

// BenchmarkAdamStep times one update of 18 927 parameters — the GraphSAGE
// model of the benchmark's in-memory training workload — and reports ns per
// parameter, on the AVX and the Go path.
func BenchmarkAdamStep(b *testing.B) {
	const n = 18927
	rng := rand.New(rand.NewSource(1))
	w, m, v, g := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		w[i], g[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64()*0.01)
	}
	k := adamCoef(100, 0.003)
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
			for i := 0; i < b.N; i++ {
				AdamStep(w, m, v, g, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/param")
		})
	}
}
