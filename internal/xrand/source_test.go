package xrand

import (
	"math"
	"math/rand"
	"testing"
)

var seeds = []int64{0, 1, -5, 1<<31 - 1, 1 << 40}

// TestSourceMatchesMathRand pins every stream of Source to math/rand's
// source under the same seed: its own Int63, Uint64 and Float32, and the
// Intn, Float64 and NormFloat64 of a rand.Rand wrapped around it.
func TestSourceMatchesMathRand(t *testing.T) {
	const n = 5000
	for _, seed := range seeds {
		s, ref := New(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < n; i++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, i, got, want)
			}
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 #%d = %d, math/rand %d", seed, i, got, want)
			}
		}

		s, r := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if got, want := s.Float32(), r.Float32(); got != want {
				t.Fatalf("seed %d: Float32 #%d = %v, math/rand %v", seed, i, got, want)
			}
		}

		w, r := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			bound := 1 + i%1000
			if got, want := w.Intn(bound), r.Intn(bound); got != want {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, bound, i, got, want)
			}
			if got, want := w.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, got, want)
			}
			if got, want := w.NormFloat64(), r.NormFloat64(); got != want {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}

// TestFloat32RedrawsOne runs Float32 far enough (2^26 draws) that some
// Int63 value rounds to 1 as a float32 — probability 2^-24 a draw — and
// checks the redraw consumes the stream as rand.Rand.Float32 does. A
// separate pass over the raw Int63 stream shows the redraw really ran.
func TestFloat32RedrawsOne(t *testing.T) {
	const seed, n = 1, 1 << 26
	s, r := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if got, want := s.Float32(), r.Float32(); got != want {
			t.Fatalf("Float32 #%d = %v, math/rand %v", i, got, want)
		}
	}
	if got, want := s.Int63(), r.Int63(); got != want {
		t.Fatalf("after %d Float32 draws: Int63 = %d, math/rand %d", n, got, want)
	}
	ones, raw := 0, New(seed)
	for i := 0; i < n; i++ {
		if float32(float64(raw.Int63())/(1<<63)) == 1 {
			ones++
		}
	}
	if ones == 0 {
		t.Fatalf("seed %d: no Int63 in the first %d rounds to 1; the redraw never ran", seed, n)
	}
}

// FuzzSourceMatchesMathRand compares the Int63, Uint64, Float32, Float64,
// Int63n and Zipf streams with math/rand's over arbitrary seeds, draw
// counts, bounds and Zipf shapes (s folded into [1.01, 10), v into [1, 101),
// where math/rand's rejection loop terminates).
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range seeds {
		f.Add(seed, uint16(100), int64(1000003), 1.35, 1.0, uint64(100_000))
	}
	f.Add(int64(3), uint16(600), int64(1<<40), 0.0, 0.0, uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, bound int64, s, v float64, imax uint64) {
		if bound <= 0 {
			bound = bound&math.MaxInt64 | 1
		}
		s = 1.01 + math.Mod(math.Abs(s), 9)
		v = 1 + math.Mod(math.Abs(v), 100)
		if math.IsNaN(s) || math.IsNaN(v) {
			s, v = 1.35, 1
		}
		src, ref := New(seed), rand.New(rand.NewSource(seed))
		z, zref := NewZipf(src, s, v, imax), rand.NewZipf(ref, s, v, imax)
		for i := 0; i < int(draws); i++ {
			switch i % 6 {
			case 0:
				if got, want := src.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, i, got, want)
				}
			case 1:
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d: Uint64 #%d = %d, math/rand %d", seed, i, got, want)
				}
			case 2:
				if got, want := src.Float32(), ref.Float32(); got != want {
					t.Fatalf("seed %d: Float32 #%d = %v, math/rand %v", seed, i, got, want)
				}
			case 3:
				if got, want := src.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, got, want)
				}
			case 4:
				if got, want := src.Int63n(bound), ref.Int63n(bound); got != want {
					t.Fatalf("seed %d: Int63n(%d) #%d = %d, math/rand %d", seed, bound, i, got, want)
				}
			default:
				if got, want := z.Uint64(), zref.Uint64(); got != want {
					t.Fatalf("seed %d: Zipf(%g, %g, %d) #%d = %d, math/rand %d", seed, s, v, imax, i, got, want)
				}
			}
		}
	})
}
