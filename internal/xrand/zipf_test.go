package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// zipfParams are (s, v, imax) triples for the Zipf tests: the dataset
// generator's own shape, a tail almost as heavy as s allows, steep ones,
// and the one-value and two-value ranges.
var zipfParams = []struct {
	s, v float64
	imax uint64
}{
	{1.35, 1, 100_000}, {1.01, 1, 100}, {2.5, 3, 1000}, {3, 1, 10},
	{5, 10, 1 << 20}, {1.3, 1, 0}, {2, 1, 1},
}

// secondTests counts, over the next n draws of z, those whose first
// acceptance test fails so that Uint64 evaluates the second: it replays each
// draw's first candidate on a copy of the source.
func secondTests(z *Zipf, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		cp := *z.r
		x := z.hinv(z.hxm + cp.Float64()*z.hx0minusHxm)
		if math.Floor(x+0.5)-x > z.s {
			c++
		}
		z.Uint64()
	}
	return c
}

// TestZipfMatchesMathRand: Zipf over a Source draws math/rand's Zipf values
// from the same stream, draw for draw, and leaves the stream where math/rand
// leaves it — including draws decided by the second acceptance test, which
// every range wider than one value reaches.
func TestZipfMatchesMathRand(t *testing.T) {
	const n = 20000
	for _, p := range zipfParams {
		for _, seed := range seeds {
			src, r := New(seed), rand.New(rand.NewSource(seed))
			z, ref := NewZipf(src, p.s, p.v, p.imax), rand.NewZipf(r, p.s, p.v, p.imax)
			for i := 0; i < n; i++ {
				got, want := z.Uint64(), ref.Uint64()
				if got != want {
					t.Fatalf("%+v seed %d: draw %d = %d, math/rand %d", p, seed, i, got, want)
				}
				if got > p.imax {
					t.Fatalf("%+v seed %d: draw %d = %d above imax", p, seed, i, got)
				}
			}
			if got, want := src.Int63(), r.Int63(); got != want {
				t.Fatalf("%+v seed %d: stream after %d draws at %d, math/rand at %d", p, seed, n, got, want)
			}
		}
		if p.imax > 0 {
			if c := secondTests(NewZipf(New(1), p.s, p.v, p.imax), n); c == 0 {
				t.Errorf("%+v: no draw reached the second acceptance test", p)
			}
		}
	}
	if NewZipf(New(1), 1, 1, 10) != nil || NewZipf(New(1), 2, 0.5, 10) != nil {
		t.Error("NewZipf accepted s <= 1 or v < 1")
	}
}

// TestFloat64Int63nMatchMathRand: Float64 and Int63n draw rand.Rand's values,
// over powers of two (the masked path), bounds near 2^63 (where rejection is
// likeliest) and small ones.
func TestFloat64Int63nMatchMathRand(t *testing.T) {
	bounds := []int64{1, 2, 3, 7, 1 << 20, 1000003, 1<<62 + 1, math.MaxInt64}
	for _, seed := range seeds {
		s, r := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if got, want := s.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, got, want)
			}
			b := bounds[i%len(bounds)]
			if got, want := s.Int63n(b), r.Int63n(b); got != want {
				t.Fatalf("seed %d: Int63n(%d) #%d = %d, math/rand %d", seed, b, i, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	New(1).Int63n(0)
}
