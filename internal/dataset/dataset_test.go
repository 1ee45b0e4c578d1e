package dataset

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"wholegraph/internal/tensor"
)

func smallSpec() Spec {
	s := OgbnProducts.Scaled(0.001) // ~2400 nodes, ~62k edges
	return s
}

func TestValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("registry spec %s invalid: %v", s.Name, err)
		}
	}
	bad := OgbnProducts
	bad.ZipfS = 1.0
	if err := bad.Validate(); err == nil {
		t.Error("ZipfS=1 accepted")
	}
	bad = OgbnProducts
	bad.NumClasses = 1
	if err := bad.Validate(); err == nil {
		t.Error("NumClasses=1 accepted")
	}
	bad = OgbnProducts
	bad.TrainFrac = 0.9
	bad.ValFrac = 0.2
	if err := bad.Validate(); err == nil {
		t.Error("overlapping split accepted")
	}
}

func TestScaled(t *testing.T) {
	s := OgbnPapers100M.Scaled(0.0001)
	if s.Nodes != 11110 || s.Edges != 160000 {
		t.Errorf("scaled sizes: %d nodes %d edges", s.Nodes, s.Edges)
	}
	if s.FeatDim != 128 {
		t.Errorf("scaling changed feature dim")
	}
	if s.Name == OgbnPapers100M.Name {
		t.Error("scaled name should record the factor")
	}
	// Scale floor keeps tiny factors usable.
	tiny := OgbnProducts.Scaled(1e-9)
	if tiny.Nodes < 64 || tiny.Edges < 128 {
		t.Errorf("scale floor violated: %d/%d", tiny.Nodes, tiny.Edges)
	}
}

func TestGenerateShapes(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Spec
	if d.Graph.N != s.Nodes {
		t.Fatalf("nodes = %d, want %d", d.Graph.N, s.Nodes)
	}
	if d.NumEdgePairs() != s.Edges {
		t.Fatalf("edge pairs = %d, want %d", d.NumEdgePairs(), s.Edges)
	}
	if d.Graph.NumEdges() != 2*s.Edges {
		t.Fatalf("undirected storage should double edges: %d", d.Graph.NumEdges())
	}
	if int64(len(d.Feat)) != s.Nodes*int64(s.FeatDim) {
		t.Fatalf("feature length %d", len(d.Feat))
	}
	nLab := len(d.Train) + len(d.Val) + len(d.Test)
	wantLab := int(float64(s.Nodes) * s.LabelRatio)
	if nLab < wantLab-1 || nLab > wantLab+1 {
		t.Errorf("labeled = %d, want ~%d", nLab, wantLab)
	}
	if len(d.Train) < 7*nLab/10 {
		t.Errorf("train split too small: %d of %d", len(d.Train), nLab)
	}
}

// TestGenerateDeterministic: one spec generates one dataset, whether the
// adjacency sort and the feature rows ran on one goroutine or were shared
// between four (~2400 nodes are three chunks of rows to sort and ten of
// features).
func TestGenerateDeterministic(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	a, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	tensor.SetWorkers(4)
	b, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("edge counts differ across runs")
	}
	for i := range a.Graph.Col {
		if a.Graph.Col[i] != b.Graph.Col[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	for i := range a.Feat {
		if a.Feat[i] != b.Feat[i] {
			t.Fatalf("feature %d differs", i)
		}
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatalf("train id %d differs", i)
		}
	}
}

func TestLabelsConsistent(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Spec
	seen := map[int64]bool{}
	for _, set := range [][]int64{d.Train, d.Val, d.Test} {
		for _, v := range set {
			if seen[v] {
				t.Fatalf("node %d appears in two splits", v)
			}
			seen[v] = true
			if d.Labels[v] != s.Class(v) {
				t.Fatalf("label of %d = %d, want %d", v, d.Labels[v], s.Class(v))
			}
			if d.Labels[v] < 0 || d.Labels[v] >= int32(s.NumClasses) {
				t.Fatalf("label of %d out of range: %d", v, d.Labels[v])
			}
		}
	}
	unlabeled := 0
	for _, l := range d.Labels {
		if l == -1 {
			unlabeled++
		}
	}
	if unlabeled == 0 {
		t.Error("no unlabeled nodes despite LabelRatio < 1")
	}
}

func TestDegreeDistributionHeavyTailed(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := d.Graph.MaxDegree()
	avg := float64(d.Graph.NumEdges()) / float64(d.Graph.N)
	if float64(maxDeg) < 10*avg {
		t.Errorf("max degree %d not heavy-tailed vs avg %.1f", maxDeg, avg)
	}
}

func TestHomophily(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Spec
	same, total := 0, 0
	for v := int64(0); v < d.Graph.N; v++ {
		for _, w := range d.Graph.Neighbors(v) {
			total++
			if s.Class(v) == s.Class(w) {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	// With homophily 0.6 and 47 classes, same-class edges should be far
	// above the 1/47 random baseline.
	if frac < 0.3 {
		t.Errorf("same-class edge fraction = %.3f, want >= 0.3", frac)
	}
}

func TestFeaturesClassSeparated(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Spec
	dim := s.FeatDim
	// Mean intra-class distance to the class mean must be below the mean
	// distance to another class's mean — otherwise nothing is learnable.
	means := make([]float64, s.NumClasses*dim)
	counts := make([]float64, s.NumClasses)
	for v := int64(0); v < s.Nodes; v++ {
		c := int(s.Class(v))
		counts[c]++
		for j := 0; j < dim; j++ {
			means[c*dim+j] += float64(d.Feat[v*int64(dim)+int64(j)])
		}
	}
	for c := 0; c < s.NumClasses; c++ {
		for j := 0; j < dim; j++ {
			means[c*dim+j] /= counts[c]
		}
	}
	dist := func(v int64, c int) float64 {
		var sum float64
		for j := 0; j < dim; j++ {
			df := float64(d.Feat[v*int64(dim)+int64(j)]) - means[c*dim+j]
			sum += df * df
		}
		return math.Sqrt(sum)
	}
	var own, other float64
	n := int64(500)
	for v := int64(0); v < n; v++ {
		c := int(s.Class(v))
		own += dist(v, c)
		other += dist(v, (c+1)%s.NumClasses)
	}
	if own >= other {
		t.Errorf("features not class-separated: own dist %.2f >= other %.2f", own/float64(n), other/float64(n))
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, name := range []string{"ogbn-products", "ogbn-papers100M", "Friendster", "UK_domain"} {
		if _, ok := Registry[name]; !ok {
			t.Errorf("registry missing %s", name)
		}
	}
	if len(All()) != 4 {
		t.Errorf("All() returned %d specs", len(All()))
	}
}

func TestNoSelfLoops(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < d.Graph.N; v++ {
		for _, w := range d.Graph.Neighbors(v) {
			if w == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.bin"
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != orig.Spec {
		t.Fatalf("spec mismatch: %+v vs %+v", got.Spec, orig.Spec)
	}
	if got.Graph.N != orig.Graph.N || got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatal("graph size mismatch")
	}
	for i := range orig.Graph.Col {
		if got.Graph.Col[i] != orig.Graph.Col[i] {
			t.Fatalf("col %d differs", i)
		}
	}
	for i := range orig.Feat {
		if got.Feat[i] != orig.Feat[i] {
			t.Fatalf("feat %d differs", i)
		}
	}
	for i := range orig.Labels {
		if got.Labels[i] != orig.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
	for i := range orig.Train {
		if got.Train[i] != orig.Train[i] {
			t.Fatalf("train %d differs", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a dataset")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader("WGDS")); err == nil {
		t.Error("truncated file accepted")
	}
	// Wrong version.
	var sb strings.Builder
	sb.WriteString("WGDS")
	sb.Write([]byte{99, 0, 0, 0})
	if _, err := Load(strings.NewReader(sb.String())); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestLoadDetectsCorruption: flipping any byte after the version word makes
// the CRC-32C trailer reject the file.
func TestLoadDetectsCorruption(t *testing.T) {
	orig, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.bin"
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{16, len(raw) / 2, len(raw) - 10} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x01
		_, err := Load(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
		if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "read") {
			t.Logf("offset %d surfaced as: %v", off, err)
		}
	}
	// Truncation (losing part of the trailer) is also rejected.
	if _, err := Load(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Error("truncated trailer accepted")
	}
}

// TestLoadRejectsV1: pre-checksum files are refused with a clear message
// instead of being misparsed.
func TestLoadRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("WGDS")
	buf.Write([]byte{1, 0, 0, 0})
	_, err := Load(&buf)
	if err == nil {
		t.Fatal("v1 file accepted")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Errorf("unhelpful v1 error: %v", err)
	}
}

// TestOutOfCoreEquivalence: GenerateOutOfCore must agree with its in-RAM
// twin MaterializeOutOfCore on everything — adjacency (hash-defined vs
// materialized CSR), labels, splits, and every feature row bit-exactly —
// while materializing nothing itself.
func TestOutOfCoreEquivalence(t *testing.T) {
	spec := smallSpec()
	full, err := MaterializeOutOfCore(spec)
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := GenerateOutOfCore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ooc.Feat != nil {
		t.Fatal("out-of-core dataset materialized a slab")
	}
	if ooc.Graph != nil {
		t.Fatal("out-of-core dataset materialized a CSR")
	}
	if ooc.Gen == nil || ooc.Topo == nil {
		t.Fatal("out-of-core dataset missing a generator")
	}
	if full.Graph == nil || full.Topo == nil || full.Feat == nil {
		t.Fatal("materialized twin incomplete")
	}
	n := spec.Nodes
	if full.Graph.N != n || ooc.Topo.NumNodes() != n {
		t.Fatal("node counts differ")
	}
	if got, want := ooc.Topo.NumEdges(), full.Graph.NumEdges(); got != want {
		t.Fatalf("edge counts differ: %d != %d", got, want)
	}
	if got, want := ooc.NumEdgePairs(), full.NumEdgePairs(); got != want {
		t.Fatalf("edge pairs differ: %d != %d", got, want)
	}
	// Adjacency: every row of the materialized CSR must equal the
	// hash-defined lists, both whole-row and sliced.
	buf := make([]int64, 0)
	for v := int64(0); v < n; v++ {
		deg := ooc.Topo.Degree(v)
		if got := full.Graph.Degree(v); got != deg {
			t.Fatalf("node %d degree %d != %d", v, deg, got)
		}
		if int64(cap(buf)) < deg {
			buf = make([]int64, deg)
		}
		row := buf[:deg]
		ooc.Topo.FillNeighbors(v, 0, deg, row)
		want := full.Graph.Neighbors(v)
		for k, d := range row {
			if d == v {
				t.Fatalf("self-loop at node %d slot %d", v, k)
			}
			if d < 0 || d >= n {
				t.Fatalf("node %d slot %d out of range: %d", v, k, d)
			}
			if d != want[k] {
				t.Fatalf("node %d slot %d: %d != %d", v, k, d, want[k])
			}
		}
		// Sliced fill must agree with the whole-row fill.
		if deg >= 2 {
			half := make([]int64, deg-1)
			ooc.Topo.FillNeighbors(v, 1, deg, half)
			for k, d := range half {
				if d != row[k+1] {
					t.Fatalf("node %d sliced fill diverges at slot %d", v, k+1)
				}
			}
		}
	}
	for i := range full.Labels {
		if ooc.Labels[i] != full.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
	for i := range full.Train {
		if ooc.Train[i] != full.Train[i] {
			t.Fatalf("train split %d differs", i)
		}
	}
	for i := range full.Val {
		if ooc.Val[i] != full.Val[i] {
			t.Fatalf("val split %d differs", i)
		}
	}
	dim := spec.FeatDim
	row := make([]float32, dim)
	for _, v := range []int64{0, 1, n / 2, n - 1} {
		ooc.FillFeatRow(v, row)
		for j := 0; j < dim; j++ {
			want := full.Feat[v*int64(dim)+int64(j)]
			if math.Float32bits(row[j]) != math.Float32bits(want) {
				t.Fatalf("node %d col %d: %g != %g", v, j, row[j], want)
			}
		}
	}
	// Out-of-core datasets cannot be saved (no slab, no CSR to write).
	if err := ooc.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save accepted an out-of-core dataset")
	}
}

// TestEdgeGenDeterminism: two independently constructed generators agree,
// and the degree model produces the spec's edge budget with a heavy tail.
func TestEdgeGenDeterminism(t *testing.T) {
	spec := smallSpec()
	a, b := NewEdgeGen(spec), NewEdgeGen(spec)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge totals differ: %d != %d", a.NumEdges(), b.NumEdges())
	}
	n := spec.Nodes
	var maxDeg int64
	buf1 := make([]int64, 64)
	buf2 := make([]int64, 64)
	for v := int64(0); v < n; v += 7 {
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("degree(%d) differs", v)
		}
		deg := a.Degree(v)
		if deg > maxDeg {
			maxDeg = deg
		}
		k1 := deg
		if k1 > 64 {
			k1 = 64
		}
		a.FillNeighbors(v, 0, k1, buf1[:k1])
		b.FillNeighbors(v, 0, k1, buf2[:k1])
		for k := int64(0); k < k1; k++ {
			if buf1[k] != buf2[k] {
				t.Fatalf("neighbor (%d,%d) differs", v, k)
			}
		}
	}
	// Stored edges ~ 2x pairs (undirected), within rounding of the target.
	stored := a.NumEdges()
	want := 2 * spec.Edges
	if stored < want/2 || stored > want+want/2 {
		t.Errorf("stored edges %d far from target %d", stored, want)
	}
	// Heavy tail: the hub degree dwarfs the mean.
	mean := float64(stored) / float64(n)
	if float64(maxDeg) < 10*mean {
		t.Errorf("max degree %d not heavy-tailed (mean %.1f)", maxDeg, mean)
	}
	if maxDeg > n-1 {
		t.Errorf("max degree %d exceeds cap %d", maxDeg, n-1)
	}
	// Homophily: a large same-class neighbor fraction (spec.Homophily 0.6
	// plus same-class mass from the power-law draw).
	same, total := 0, 0
	c := int64(spec.NumClasses)
	for v := int64(0); v < n; v += 11 {
		deg := a.Degree(v)
		if deg > 32 {
			deg = 32
		}
		a.FillNeighbors(v, 0, deg, buf1[:deg])
		for _, d := range buf1[:deg] {
			if d%c == v%c {
				same++
			}
			total++
		}
	}
	if frac := float64(same) / float64(total); frac < 0.4 {
		t.Errorf("same-class neighbor fraction %.2f too low for homophily %.2f", frac, spec.Homophily)
	}
}

// TestOutOfCoreRejectsWeighted: edge weights need a materialized column.
func TestOutOfCoreRejectsWeighted(t *testing.T) {
	spec := smallSpec()
	spec.Weighted = true
	if _, err := GenerateOutOfCore(spec); err == nil {
		t.Error("weighted out-of-core dataset accepted")
	}
	if _, err := MaterializeOutOfCore(spec); err == nil {
		t.Error("weighted materialized-out-of-core dataset accepted")
	}
}

// TestCheckScale pins which scale factors CheckScale refuses: every one that
// is not positive and finite, each of which Scaled would clamp to a 64-node
// graph named after the bad factor.
func TestCheckScale(t *testing.T) {
	for _, f := range []float64{-1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if CheckScale(f) == nil {
			t.Errorf("CheckScale(%v) accepted the factor", f)
		}
	}
	for _, f := range []float64{1e-9, 1e-3, 1, 3} {
		if err := CheckScale(f); err != nil {
			t.Errorf("CheckScale(%v) = %v", f, err)
		}
	}
}
