package serve

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// copySortPercentile is the nearest-rank p-quantile computed the way the
// server did before it sorted once: over a sorted copy, one per quantile.
func copySortPercentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// TestLatencyPercentilesMatchCopySort pins the one in-place sort behind
// Result.P50/P95/P99 to three copy-and-sort quantiles: on empty, one- and
// two-element inputs, and on random lengths drawn from a few distinct values
// so that ties straddle every rank.
func TestLatencyPercentilesMatchCopySort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := [][]float64{nil, {3e-3}, {2e-3, 1e-3}, {1e-3, 1e-3}}
	for i := 0; i < 200; i++ {
		v := make([]float64, rng.Intn(300))
		levels := 1 + rng.Intn(6)
		for j := range v {
			v[j] = float64(rng.Intn(levels)) * 1e-4
		}
		inputs = append(inputs, v)
	}
	for _, v := range inputs {
		want := [3]float64{copySortPercentile(v, 0.50), copySortPercentile(v, 0.95), copySortPercentile(v, 0.99)}
		var got [3]float64
		got[0], got[1], got[2] = latencyPercentiles(v)
		if got != want {
			t.Fatalf("len %d: one sort gives %v, copy-and-sort %v", len(v), got, want)
		}
	}
}
