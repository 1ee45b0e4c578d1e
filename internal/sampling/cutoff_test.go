package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// alg1Keys packs m keys the way parallelSort does for a degree-n target:
// value<<32 | index, values uniform in [0, n-i), so high halves repeat.
func alg1Keys(m, n int, rng *rand.Rand) []uint64 {
	keys := make([]uint64, m)
	for i := range keys {
		keys[i] = uint64(rng.Intn(n-i))<<32 | uint64(i)
	}
	return keys
}

// TestSortCutoffMatchesRadixPasses: on either side of insertionSortMax the
// sort entry point returns exactly what the eight counting passes return, so
// the cutoff changes no sampled neighbourhood.
func TestSortCutoffMatchesRadixPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for m := 0; m <= 2*insertionSortMax; m++ {
		for trial := 0; trial < 20; trial++ {
			// Few distinct values: most high halves are duplicated and the
			// low-half index alone orders them.
			keys := alg1Keys(m, m+1+rng.Intn(4+trial*trial), rng)
			want := slices.Clone(keys)
			radixPasses64(want, make([]uint64, m))
			radixSort64Buf(keys, make([]uint64, m))
			if !slices.Equal(keys, want) {
				t.Fatalf("m=%d trial %d: cutoff sort %x, radix passes %x", m, trial, keys, want)
			}
		}
	}
}

// TestAlg1MatchesReferenceAcrossCutoff drives the whole sampler — rng draws
// included — against the sequential Fisher-Yates reference for every sample
// size from 1 to twice the cutoff.
func TestAlg1MatchesReferenceAcrossCutoff(t *testing.T) {
	var sc Scratch
	for m := 1; m <= 2*insertionSortMax; m++ {
		for _, n := range []int{m + 1, m + 7, 3 * m, 40 * m} {
			seed := int64(1000*m + n)
			got := sc.SampleWithoutReplacement(m, n, rand.New(rand.NewSource(seed)))
			rng := rand.New(rand.NewSource(seed))
			r := make([]int64, m)
			for i := range r {
				r[i] = int64(rng.Intn(n - i))
			}
			if want := sequentialSampleRef(r, n); !slices.Equal(got, want) {
				t.Fatalf("m=%d n=%d: got %v, want %v", m, n, got, want)
			}
		}
	}
}

// BenchmarkSortCutoff is what insertionSortMax was sized with: insertion sort
// against the counting passes on Algorithm 1's keys, by key count.
func BenchmarkSortCutoff(b *testing.B) {
	for _, m := range []int{5, 10, 16, 24, 32, 40, 48, 56, 64, 96, 128} {
		rng := rand.New(rand.NewSource(int64(m)))
		const sets = 1024
		src := make([][]uint64, sets)
		for i := range src {
			src[i] = alg1Keys(m, 20*m, rng)
		}
		keys, buf := make([]uint64, m), make([]uint64, m)
		b.Run(fmt.Sprintf("insertion/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(keys, src[i%sets])
				insertionSort64(keys)
			}
		})
		b.Run(fmt.Sprintf("radix/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(keys, src[i%sets])
				radixPasses64(keys, buf)
			}
		})
	}
}
