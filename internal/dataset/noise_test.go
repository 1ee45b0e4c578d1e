package dataset

import (
	"math"
	"sync"
	"testing"
)

// TestFeatureNoiseStatistics checks the counter-based generator as a
// distribution: per class, the mean of the generated rows sits on the
// class centroid; the noise around it has the spec's standard deviation
// and a Gaussian's fourth moment and tail mass.
func TestFeatureNoiseStatistics(t *testing.T) {
	s := Spec{
		Name: "noise", Nodes: 40_000, Edges: 128, FeatDim: 32, NumClasses: 8,
		LabelRatio: 0.1, TrainFrac: 0.8, ValFrac: 0.1, ZipfS: 1.3,
		Homophily: 0.5, NoiseSigma: 1.2, Seed: 77,
	}
	ds, err := GenerateOutOfCore(s)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Gen
	dim := s.FeatDim
	sum := make([]float64, s.NumClasses*dim)
	count := make([]float64, s.NumClasses)
	var n, m2, m4, tail float64
	row := make([]float32, dim)
	for v := int64(0); v < s.Nodes; v++ {
		g.FillRow(v, row)
		c := int(s.Class(v))
		count[c]++
		for j, x := range row {
			sum[c*dim+j] += float64(x)
			z := (float64(x) - float64(g.centroids[c*dim+j])) / s.NoiseSigma
			n++
			m2 += z * z
			m4 += z * z * z * z
			if math.Abs(z) > 3 {
				tail++
			}
		}
	}
	// A class mean over k rows has standard error sigma/sqrt(k); 5 of them
	// is a one-in-a-million bound per coordinate.
	for c := 0; c < s.NumClasses; c++ {
		tol := 5 * s.NoiseSigma / math.Sqrt(count[c])
		for j := 0; j < dim; j++ {
			mean := sum[c*dim+j] / count[c]
			if d := math.Abs(mean - float64(g.centroids[c*dim+j])); d > tol {
				t.Errorf("class %d dim %d: mean off its centroid by %.4f (tolerance %.4f)", c, j, d, tol)
			}
		}
	}
	if std := math.Sqrt(m2 / n); math.Abs(std-1) > 0.02 {
		t.Errorf("noise std = %.4f x NoiseSigma, want within 2 %%", std)
	}
	if kurt := (m4 / n) / (m2 / n * m2 / n); math.Abs(kurt-3) > 0.1 {
		t.Errorf("noise kurtosis = %.3f, want 3 (Gaussian)", kurt)
	}
	if frac := tail / n; math.Abs(frac-0.0027) > 0.0005 {
		t.Errorf("P(|z| > 3) = %.5f, want 0.0027", frac)
	}
}

// TestFeatureRowsDistinct: the noise differs across nodes and across
// dataset seeds — the stream is keyed by both.
func TestFeatureRowsDistinct(t *testing.T) {
	s := smallSpec()
	a, err := GenerateOutOfCore(s)
	if err != nil {
		t.Fatal(err)
	}
	s2 := s
	s2.Seed++
	b, err := GenerateOutOfCore(s2)
	if err != nil {
		t.Fatal(err)
	}
	dim := s.FeatDim
	// noise subtracts the row's class centroid (a different one per seed).
	noise := func(g *FeatureGen, v int64, dst []float32) {
		g.FillRow(v, dst)
		c := int(s.Class(v))
		for j := range dst {
			dst[j] -= g.centroids[c*dim+j]
		}
	}
	same := func(x, y []float32) int {
		n := 0
		for j := range x {
			if math.Abs(float64(x[j]-y[j])) < 1e-4 {
				n++
			}
		}
		return n
	}
	r0, r1, r2 := make([]float32, dim), make([]float32, dim), make([]float32, dim)
	for v := int64(0); v < 200; v++ {
		noise(a.Gen, v, r0)
		noise(a.Gen, v+1, r1)
		noise(b.Gen, v, r2)
		if n := same(r0, r1); n > dim/10 {
			t.Fatalf("nodes %d and %d share %d of %d noise values", v, v+1, n, dim)
		}
		if n := same(r0, r2); n > dim/10 {
			t.Fatalf("node %d: seeds %d and %d share %d of %d noise values", v, s.Seed, s2.Seed, n, dim)
		}
	}
}

// TestFillRowConcurrent: concurrent FillRow calls (distinct dst buffers)
// produce the rows a serial pass does — the generator holds no mutable
// state. Run under -race by scripts/check.sh.
func TestFillRowConcurrent(t *testing.T) {
	s := smallSpec()
	ds, err := Generate(s) // Feat is the serial pass
	if err != nil {
		t.Fatal(err)
	}
	dim := int64(s.FeatDim)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := make([]float32, dim)
			// Overlapping ranges: workers regenerate the same rows at once.
			for v := int64(w); v < s.Nodes; v += 2 {
				ds.Gen.FillRow(v, row)
				for j, x := range row {
					if math.Float32bits(x) != math.Float32bits(ds.Feat[v*dim+int64(j)]) {
						t.Errorf("worker %d node %d dim %d: %g != serial %g", w, v, j, x, ds.Feat[v*dim+int64(j)])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFillRowAllocatesNothing pins the point of the counter-based stream.
func TestFillRowAllocatesNothing(t *testing.T) {
	ds, err := GenerateOutOfCore(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, ds.Spec.FeatDim)
	v := int64(0)
	if avg := testing.AllocsPerRun(200, func() { ds.Gen.FillRow(v, row); v++ }); avg != 0 {
		t.Errorf("FillRow allocates %.1f objects per row, want 0", avg)
	}
}
