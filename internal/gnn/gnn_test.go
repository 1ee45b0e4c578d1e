package gnn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
)

// randomBlock builds a bipartite block with the given target/node counts.
func randomBlock(rng *rand.Rand, targets, nodes, fanout int) *spops.SubCSR {
	g := &spops.SubCSR{NumTargets: targets, NumNodes: nodes, RowPtr: []int64{0}}
	for t := 0; t < targets; t++ {
		deg := 1 + rng.Intn(fanout)
		for k := 0; k < deg; k++ {
			g.Col = append(g.Col, int32(rng.Intn(nodes)))
		}
		g.RowPtr = append(g.RowPtr, int64(len(g.Col)))
	}
	g.DupCount = make([]int32, nodes)
	for _, c := range g.Col {
		g.DupCount[c]++
	}
	return g
}

// randomBatch chains layer blocks outside-in so Validate passes.
func randomBatch(rng *rand.Rand, batch, layers, fanout, inDim, classes int) *Batch {
	sizes := make([]int, layers+1)
	sizes[layers] = batch
	for l := layers - 1; l >= 0; l-- {
		sizes[l] = sizes[l+1] * 2
	}
	b := &Batch{}
	for l := 0; l < layers; l++ {
		b.Blocks = append(b.Blocks, randomBlock(rng, sizes[l+1], sizes[l], fanout))
	}
	b.Feat = tensor.Randn(sizes[0], inDim, 1, rng)
	b.Labels = make([]int32, batch)
	for i := range b.Labels {
		b.Labels[i] = int32(rng.Intn(classes))
	}
	return b
}

// paperArchs are the evaluated model names in paper order; GIN is not part
// of the paper's experiments.
var paperArchs = []string{"gcn", "graphsage", "gat"}

func smallConfig(inDim, classes int, be spops.Backend) Config {
	return Config{
		InDim: inDim, Hidden: 8, Classes: classes,
		Layers: 2, Heads: 2, Dropout: 0, Backend: be, Seed: 3,
	}
}

func TestBatchValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := randomBatch(rng, 4, 2, 3, 5, 3)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := randomBatch(rng, 4, 2, 3, 5, 3)
	bad.Labels = bad.Labels[:2]
	if err := bad.Validate(); err == nil {
		t.Error("short labels accepted")
	}
	bad2 := randomBatch(rng, 4, 2, 3, 5, 3)
	bad2.Feat = tensor.New(3, 5)
	if err := bad2.Validate(); err == nil {
		t.Error("wrong feature rows accepted")
	}
	if (&Batch{}).Validate() == nil {
		t.Error("empty batch accepted")
	}
}

func TestWithSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomBlock(rng, 5, 12, 4)
	sl := withSelfLoops(g)
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
	if sl.NumEdges() != g.NumEdges()+5 {
		t.Fatalf("self-loop edges = %d, want %d", sl.NumEdges(), g.NumEdges()+5)
	}
	for tgt := 0; tgt < 5; tgt++ {
		found := false
		for e := sl.RowPtr[tgt]; e < sl.RowPtr[tgt+1]; e++ {
			if sl.Col[e] == int32(tgt) {
				found = true
			}
		}
		if !found {
			t.Fatalf("target %d missing self loop", tgt)
		}
		if sl.DupCount[tgt] != g.DupCount[tgt]+1 {
			t.Fatalf("self-loop dupcount wrong at %d", tgt)
		}
	}
	// Original untouched.
	if g.NumEdges() == sl.NumEdges() {
		t.Error("withSelfLoops mutated input")
	}
}

func TestModelsProduceLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, inDim, classes = 6, 5, 4
	b := randomBatch(rng, batch, 2, 3, inDim, classes)
	for _, arch := range paperArchs {
		m := New(arch, smallConfig(inDim, classes, spops.BackendNative))
		tp := autograd.NewTape()
		out := m.Forward(nil, tp, b, false)
		if out.Value.R != batch || out.Value.C != classes {
			t.Errorf("%s logits %dx%d, want %dx%d", arch, out.Value.R, out.Value.C, batch, classes)
		}
		if m.Name() != arch && !(arch == "graphsage" && m.Name() == "graphsage") {
			t.Errorf("name mismatch: %s vs %s", m.Name(), arch)
		}
		if m.Params().NumElements() == 0 {
			t.Errorf("%s has no parameters", arch)
		}
	}
}

func TestModelsTrainToOverfit(t *testing.T) {
	// A learnable toy task: the label of each target is determined by
	// which feature dimension dominates among its neighbors. All three
	// architectures must overfit a fixed batch.
	rng := rand.New(rand.NewSource(4))
	const batch, inDim, classes = 16, 4, 4
	b := randomBatch(rng, batch, 2, 3, inDim, classes)
	// Make features one-hot-ish by class of a hidden assignment, and set
	// target labels from their own (target rows are shared across layers).
	hidden := make([]int32, b.Blocks[0].NumNodes)
	for i := range hidden {
		hidden[i] = int32(rng.Intn(classes))
		row := b.Feat.Row(i)
		for j := range row {
			row[j] = 0
		}
		row[hidden[i]] = 1
	}
	for i := range b.Labels {
		b.Labels[i] = hidden[i] // targets are input rows 0..batch-1 of block 0? not exactly, but fixed => learnable
	}

	for _, arch := range paperArchs {
		m := New(arch, smallConfig(inDim, classes, spops.BackendNative))
		opt := nn.NewAdam(0.02)
		var acc float64
		for it := 0; it < 150; it++ {
			tp := autograd.NewTape()
			logits := m.Forward(nil, tp, b, true)
			grad := tensor.New(logits.Value.R, logits.Value.C)
			tensor.CrossEntropy(logits.Value, b.Labels, grad)
			tp.Backward(logits, grad)
			opt.Step(nil, m.Params())
			acc = tensor.Accuracy(logits.Value, b.Labels)
			if acc >= 0.95 {
				break
			}
		}
		if acc < 0.8 {
			t.Errorf("%s failed to overfit fixed batch: accuracy %.2f", arch, acc)
		}
	}
}

func TestForwardChargesDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomBatch(rng, 4, 2, 3, 5, 3)
	m := sim.NewMachine(sim.DGXA100(1))
	for i, arch := range paperArchs {
		dev := m.Devs[i]
		model := New(arch, smallConfig(5, 3, spops.BackendNative))
		tp := autograd.NewTape()
		model.Forward(dev, tp, b, true)
		if dev.Now() == 0 {
			t.Errorf("%s forward charged nothing", arch)
		}
	}
}

func TestBackendAffectsCostNotResult(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := randomBatch(rng, 8, 2, 3, 6, 3)
	m := sim.NewMachine(sim.DGXA100(1))
	var ref *tensor.Dense
	var costs []float64
	for i, be := range []spops.Backend{spops.BackendNative, spops.BackendDGL, spops.BackendPyG} {
		dev := m.Devs[i]
		model := New("gcn", smallConfig(6, 3, be))
		tp := autograd.NewTape()
		out := model.Forward(dev, tp, b, false)
		grad := tensor.New(out.Value.R, out.Value.C)
		tensor.CrossEntropy(out.Value, b.Labels, grad)
		tp.Backward(out, grad)
		if ref == nil {
			ref = out.Value
		} else {
			// Backends reorder float accumulation (PyG scales after the
			// reduce), so allow rounding-level differences only.
			for j := range ref.V {
				d := float64(out.Value.V[j] - ref.V[j])
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("backend %v changed forward result at %d: %g vs %g",
						be, j, out.Value.V[j], ref.V[j])
				}
			}
		}
		costs = append(costs, dev.Now())
	}
	if !(costs[0] <= costs[1] && costs[1] <= costs[2]) {
		t.Errorf("backend costs not ordered: %v", costs)
	}
}

func TestGATRejectsBadHeads(t *testing.T) {
	cfg := smallConfig(4, 3, spops.BackendNative)
	cfg.Heads = 3 // does not divide hidden 8
	defer func() {
		if recover() == nil {
			t.Error("bad head count did not panic")
		}
	}()
	NewGAT(cfg)
}

func TestNewPanicsOnUnknownArch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown arch did not panic")
		}
	}()
	New("transformer", smallConfig(4, 3, spops.BackendNative))
}

// TestCheckDropoutRange holds Config.Dropout to nn.Dropout's range: a NaN,
// negative or above-one probability is refused for every architecture, the
// ends of [0, 1] and a point inside it are accepted.
func TestCheckDropoutRange(t *testing.T) {
	for _, tc := range []struct {
		p  float32
		ok bool
	}{
		{float32(math.NaN()), false},
		{-0.5, false},
		{1.5, false},
		{0, true},
		{0.5, true},
		{1, true},
	} {
		for _, arch := range append(paperArchs, "gin") {
			cfg := smallConfig(4, 3, spops.BackendNative)
			cfg.Dropout = tc.p
			err := Check(arch, cfg)
			if tc.ok && err != nil {
				t.Errorf("%s, dropout %v: %v", arch, tc.p, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "not in [0, 1]")) {
				t.Errorf("%s, dropout %v: error %v, want a range error", arch, tc.p, err)
			}
		}
	}
}

func TestGINTrainsAndInfers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const batch, inDim, classes = 16, 4, 4
	b := randomBatch(rng, batch, 2, 3, inDim, classes)
	hidden := make([]int32, b.Blocks[0].NumNodes)
	for i := range hidden {
		hidden[i] = int32(rng.Intn(classes))
		row := b.Feat.Row(i)
		for j := range row {
			row[j] = 0
		}
		row[hidden[i]] = 1
	}
	for i := range b.Labels {
		b.Labels[i] = hidden[i]
	}
	m := New("gin", smallConfig(inDim, classes, spops.BackendNative))
	if m.Name() != "gin" {
		t.Fatalf("name = %s", m.Name())
	}
	opt := nn.NewAdam(0.02)
	var acc float64
	for it := 0; it < 150; it++ {
		tp := autograd.NewTape()
		logits := m.Forward(nil, tp, b, true)
		grad := tensor.New(logits.Value.R, logits.Value.C)
		tensor.CrossEntropy(logits.Value, b.Labels, grad)
		tp.Backward(logits, grad)
		opt.Step(nil, m.Params())
		acc = tensor.Accuracy(logits.Value, b.Labels)
		if acc >= 0.95 {
			break
		}
	}
	if acc < 0.8 {
		t.Errorf("GIN failed to overfit: accuracy %.2f", acc)
	}
}

func TestScaleByScalarPlusOneGradient(t *testing.T) {
	tp := autograd.NewTape()
	xv := tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	sv := tensor.FromSlice(1, 1, []float32{0.5})
	x := tp.Param(xv)
	s := tp.Param(sv)
	y := autograd.ScaleByScalarPlusOne(x, s)
	if y.Value.At(1, 1) != 6 {
		t.Fatalf("forward = %v, want 1.5x", y.Value.V)
	}
	seed := tensor.FromSlice(2, 2, []float32{1, 1, 1, 1})
	tp.Backward(y, seed)
	if x.Grad.At(0, 0) != 1.5 {
		t.Errorf("dx = %g, want 1.5", x.Grad.At(0, 0))
	}
	if s.Grad.V[0] != 10 { // sum of x
		t.Errorf("ds = %g, want 10", s.Grad.V[0])
	}
}

// TestCheckHiddenPositive: a hidden size below 1 has no weight shapes, so
// Check refuses it for every architecture before New would panic on it.
func TestCheckHiddenPositive(t *testing.T) {
	for _, hidden := range []int{0, -4} {
		for _, arch := range append(paperArchs, "gin") {
			cfg := smallConfig(4, 3, spops.BackendNative)
			cfg.Hidden = hidden
			if err := Check(arch, cfg); err == nil {
				t.Errorf("%s, hidden %d: Check accepted it", arch, hidden)
			}
		}
	}
}
