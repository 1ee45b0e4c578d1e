package spops

import (
	"math"
	"math/rand"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// testGraph returns a small sub-graph: 3 targets over 6 input nodes with a
// duplicated column (node 4 appears twice) to exercise DupCount.
func testGraph() *SubCSR {
	g := &SubCSR{
		NumTargets: 3,
		NumNodes:   6,
		RowPtr:     []int64{0, 2, 5, 6},
		Col:        []int32{3, 4, 0, 4, 5, 1},
		DupCount:   []int32{1, 1, 0, 1, 2, 1},
	}
	return g
}

func randomGraph(rng *rand.Rand, targets, nodes, maxDeg int) *SubCSR {
	g := &SubCSR{NumTargets: targets, NumNodes: nodes, RowPtr: []int64{0}}
	for t := 0; t < targets; t++ {
		deg := rng.Intn(maxDeg + 1)
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

func TestSubCSRValidate(t *testing.T) {
	g := testGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	bad := testGraph()
	bad.Col[0] = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range col accepted")
	}
	bad = testGraph()
	bad.RowPtr = []int64{0, 2}
	if err := bad.Validate(); err == nil {
		t.Error("short rowptr accepted")
	}
	bad = testGraph()
	bad.RowPtr[1] = 5
	bad.RowPtr[2] = 2
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone rowptr accepted")
	}
}

func TestSpMMForwardSum(t *testing.T) {
	g := testGraph()
	x := tensor.New(6, 2)
	for i := range x.V {
		x.V[i] = float32(i)
	}
	tp := autograd.NewTape()
	out := SpMM(nil, BackendNative, g, tp.Const(x), nil, AggSum)
	// Target 0 aggregates nodes 3 and 4: rows [6,7] + [8,9] = [14,16].
	if out.Value.At(0, 0) != 14 || out.Value.At(0, 1) != 16 {
		t.Fatalf("row 0 = %v", out.Value.Row(0))
	}
	// Target 2 aggregates node 1: [2,3].
	if out.Value.At(2, 0) != 2 || out.Value.At(2, 1) != 3 {
		t.Fatalf("row 2 = %v", out.Value.Row(2))
	}
}

func TestSpMMForwardMean(t *testing.T) {
	g := testGraph()
	x := tensor.New(6, 2)
	for i := range x.V {
		x.V[i] = float32(i)
	}
	tp := autograd.NewTape()
	out := SpMM(nil, BackendNative, g, tp.Const(x), nil, AggMean)
	if out.Value.At(0, 0) != 7 || out.Value.At(0, 1) != 8 {
		t.Fatalf("mean row 0 = %v", out.Value.Row(0))
	}
}

func TestBackendsProduceIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 20, 50, 8)
	x := tensor.Randn(50, 7, 1, rng)
	w := tensor.Randn(int(g.NumEdges()), 1, 1, rng)

	var outs []*tensor.Dense
	var grads []*tensor.Dense
	for _, be := range []Backend{BackendNative, BackendDGL, BackendPyG} {
		tp := autograd.NewTape()
		xv := tp.Param(x.Clone())
		wv := tp.Param(w.Clone())
		out := SpMM(nil, be, g, xv, wv, AggSum)
		seed := tensor.New(out.Value.R, out.Value.C)
		for i := range seed.V {
			seed.V[i] = float32(i%5) - 2
		}
		tp.Backward(out, seed)
		outs = append(outs, out.Value)
		grads = append(grads, xv.Grad)
	}
	for b := 1; b < 3; b++ {
		for i := range outs[0].V {
			if math.Abs(float64(outs[b].V[i]-outs[0].V[i])) > 1e-5 {
				t.Fatalf("backend %d forward differs at %d", b, i)
			}
		}
		for i := range grads[0].V {
			if math.Abs(float64(grads[b].V[i]-grads[0].V[i])) > 1e-5 {
				t.Fatalf("backend %d gradient differs at %d", b, i)
			}
		}
	}
}

// numeric gradient of sum(out * seedPattern) wrt each input entry.
func spmmLoss(g *SubCSR, x, w *tensor.Dense, agg Agg) float64 {
	tp := autograd.NewTape()
	xv := tp.Const(x)
	var wv *autograd.Var
	if w != nil {
		wv = tp.Const(w)
	}
	out := SpMM(nil, BackendNative, g, xv, wv, agg)
	var loss float64
	for i, v := range out.Value.V {
		loss += float64(v) * float64(i%3-1)
	}
	return loss
}

func TestSpMMGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 8, 15, 5)
	x := tensor.Randn(15, 3, 1, rng)
	w := tensor.Randn(int(g.NumEdges()), 1, 1, rng)

	for _, agg := range []Agg{AggSum, AggMean} {
		tp := autograd.NewTape()
		xv := tp.Param(x)
		wv := tp.Param(w)
		out := SpMM(nil, BackendNative, g, xv, wv, agg)
		seed := tensor.New(out.Value.R, out.Value.C)
		for i := range seed.V {
			seed.V[i] = float32(i%3 - 1)
		}
		tp.Backward(out, seed)

		const eps = 1e-2
		for _, tc := range []struct {
			p    *tensor.Dense
			grad *tensor.Dense
		}{{x, xv.Grad}, {w, wv.Grad}} {
			if tc.grad == nil {
				tc.grad = tensor.New(tc.p.R, tc.p.C)
			}
			for i := range tc.p.V {
				orig := tc.p.V[i]
				tc.p.V[i] = orig + eps
				lp := spmmLoss(g, x, w, agg)
				tc.p.V[i] = orig - eps
				lm := spmmLoss(g, x, w, agg)
				tc.p.V[i] = orig
				num := (lp - lm) / (2 * eps)
				if math.Abs(num-float64(tc.grad.V[i])) > 1e-2*math.Max(1, math.Abs(num)) {
					t.Fatalf("agg %v grad[%d] = %g, numeric %g", agg, i, tc.grad.V[i], num)
				}
			}
		}
	}
}

func TestEdgeScoreAndSegmentSoftmax(t *testing.T) {
	g := testGraph()
	tp := autograd.NewTape()
	sl := tp.Param(tensor.FromSlice(3, 1, []float32{1, 2, 3}))
	sr := tp.Param(tensor.FromSlice(6, 1, []float32{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}))
	e := EdgeScore(nil, g, sl, sr)
	// Edge 0: target 0, col 3 -> 1 + 0.4.
	if math.Abs(float64(e.Value.V[0]-1.4)) > 1e-6 {
		t.Fatalf("edge 0 score = %g", e.Value.V[0])
	}
	// Edge 5: target 2, col 1 -> 3 + 0.2.
	if math.Abs(float64(e.Value.V[5]-3.2)) > 1e-6 {
		t.Fatalf("edge 5 score = %g", e.Value.V[5])
	}

	a := SegmentSoftmax(nil, g, e)
	// Each target's attention sums to 1.
	for tgt := 0; tgt < 3; tgt++ {
		var sum float64
		for i := g.RowPtr[tgt]; i < g.RowPtr[tgt+1]; i++ {
			sum += float64(a.Value.V[i])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("target %d attention sums to %g", tgt, sum)
		}
	}
}

func TestSegmentSoftmaxGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 5, 10, 4)
	ev := tensor.Randn(int(g.NumEdges()), 1, 1, rng)

	loss := func() float64 {
		tp := autograd.NewTape()
		a := SegmentSoftmax(nil, g, tp.Const(ev))
		var l float64
		for i, v := range a.Value.V {
			l += float64(v) * float64(i%4-1)
		}
		return l
	}
	tp := autograd.NewTape()
	e := tp.Param(ev)
	a := SegmentSoftmax(nil, g, e)
	seed := tensor.New(a.Value.R, 1)
	for i := range seed.V {
		seed.V[i] = float32(i%4 - 1)
	}
	tp.Backward(a, seed)
	const eps = 1e-3
	for i := range ev.V {
		orig := ev.V[i]
		ev.V[i] = orig + eps
		lp := loss()
		ev.V[i] = orig - eps
		lm := loss()
		ev.V[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(e.Grad.V[i])) > 1e-3*math.Max(1, math.Abs(num)) {
			t.Fatalf("softmax grad[%d] = %g, numeric %g", i, e.Grad.V[i], num)
		}
	}
}

func TestEdgeLeakyReLU(t *testing.T) {
	tp := autograd.NewTape()
	x := tp.Param(tensor.FromSlice(3, 1, []float32{2, -4, 0.5}))
	y := EdgeLeakyReLU(nil, x, 0.2)
	want := []float32{2, -0.8, 0.5}
	for i, w := range want {
		if math.Abs(float64(y.Value.V[i]-w)) > 1e-6 {
			t.Fatalf("leakyrelu[%d] = %g", i, y.Value.V[i])
		}
	}
	seed := tensor.FromSlice(3, 1, []float32{1, 1, 1})
	tp.Backward(y, seed)
	wantg := []float32{1, 0.2, 1}
	for i, w := range wantg {
		if x.Grad.V[i] != w {
			t.Fatalf("leakyrelu grad[%d] = %g", i, x.Grad.V[i])
		}
	}
}

func TestBackendCostOrdering(t *testing.T) {
	// Native <= DGL <= PyG in charged training time for the same op, and
	// native strictly beats DGL when duplicates are rare.
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 200, 4000, 10) // few duplicates in 4000 nodes
	x := tensor.Randn(4000, 64, 1, rng)

	m := sim.NewMachine(sim.DGXA100(1))
	times := map[Backend]float64{}
	for i, be := range []Backend{BackendNative, BackendDGL, BackendPyG} {
		d := m.Devs[i]
		tp := autograd.NewTape()
		xv := tp.Param(x)
		out := SpMM(d, be, g, xv, nil, AggMean)
		tp.Backward(out, tensor.New(out.Value.R, out.Value.C))
		times[be] = d.Now()
	}
	if !(times[BackendNative] < times[BackendDGL] && times[BackendDGL] < times[BackendPyG]) {
		t.Errorf("cost ordering violated: native=%g dgl=%g pyg=%g",
			times[BackendNative], times[BackendDGL], times[BackendPyG])
	}
}

func TestAtomicFraction(t *testing.T) {
	g := testGraph()
	// Node 4 is duplicated (2 of 6 edge endpoints touch it).
	if af := g.atomicFraction(); math.Abs(af-2.0/6) > 1e-9 {
		t.Errorf("atomic fraction = %g, want 1/3", af)
	}
	g.DupCount = nil
	if af := g.atomicFraction(); af != 1 {
		t.Errorf("nil dupcount fraction = %g, want 1", af)
	}
	empty := &SubCSR{NumTargets: 1, NumNodes: 1, RowPtr: []int64{0, 0}}
	if af := empty.atomicFraction(); af != 0 {
		t.Errorf("empty graph fraction = %g", af)
	}
}

func TestBackendString(t *testing.T) {
	if BackendNative.String() != "wholegraph" || BackendDGL.String() != "dgl-layers" || BackendPyG.String() != "pyg-layers" {
		t.Error("backend names changed")
	}
}

func TestSpMMStaticEdgeWeights(t *testing.T) {
	g := testGraph()
	g.EdgeW = []float32{2, 1, 1, 3, 1, 4}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(6, 2)
	for i := range x.V {
		x.V[i] = float32(i)
	}
	tp := autograd.NewTape()
	out := SpMM(nil, BackendNative, g, tp.Const(x), nil, AggSum)
	// Target 0: 2*x[3] + 1*x[4] = 2*[6,7] + [8,9] = [20,23].
	if out.Value.At(0, 0) != 20 || out.Value.At(0, 1) != 23 {
		t.Fatalf("weighted sum row 0 = %v", out.Value.Row(0))
	}
	// Weighted mean normalizes by the weight sum (3): [20/3, 23/3].
	tp2 := autograd.NewTape()
	outM := SpMM(nil, BackendNative, g, tp2.Const(x), nil, AggMean)
	if math.Abs(float64(outM.Value.At(0, 0)-20.0/3)) > 1e-6 {
		t.Fatalf("weighted mean row 0 = %v", outM.Value.Row(0))
	}

	// Bad weight count rejected by Validate.
	bad := testGraph()
	bad.EdgeW = []float32{1}
	if err := bad.Validate(); err == nil {
		t.Error("short edge weights accepted")
	}
}

func TestSpMMStaticWeightGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 6, 12, 4)
	g.EdgeW = make([]float32, g.NumEdges())
	for i := range g.EdgeW {
		g.EdgeW[i] = 0.5 + rng.Float32()
	}
	x := tensor.Randn(12, 3, 1, rng)
	w := tensor.Randn(int(g.NumEdges()), 1, 1, rng)

	loss := func() float64 {
		tp := autograd.NewTape()
		out := SpMM(nil, BackendNative, g, tp.Const(x), tp.Const(w), AggMean)
		var l float64
		for i, v := range out.Value.V {
			l += float64(v) * float64(i%3-1)
		}
		return l
	}
	tp := autograd.NewTape()
	xv := tp.Param(x)
	wv := tp.Param(w)
	out := SpMM(nil, BackendNative, g, xv, wv, AggMean)
	seed := tensor.New(out.Value.R, out.Value.C)
	for i := range seed.V {
		seed.V[i] = float32(i%3 - 1)
	}
	tp.Backward(out, seed)

	const eps = 1e-2
	for _, tc := range []struct{ p, grad *tensor.Dense }{{x, xv.Grad}, {w, wv.Grad}} {
		for i := range tc.p.V {
			orig := tc.p.V[i]
			tc.p.V[i] = orig + eps
			lp := loss()
			tc.p.V[i] = orig - eps
			lm := loss()
			tc.p.V[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(tc.grad.V[i])) > 2e-2*math.Max(1, math.Abs(num)) {
				t.Fatalf("weighted grad[%d] = %g, numeric %g", i, tc.grad.V[i], num)
			}
		}
	}
}

// TestEdgeOpsReplayOverwriteUnzeroedOutputs: the captured closures of
// EdgeScore and EdgeLeakyReLU reshape their outputs without zeroing, because
// every edge's element is written. With both outputs poisoned with NaN and
// the graph shrunk in place, a replay matches a fresh eager pass bit for bit.
func TestEdgeOpsReplayOverwriteUnzeroedOutputs(t *testing.T) {
	g := testGraph()
	slv := tensor.FromSlice(3, 1, []float32{1, -2, 3})
	srv := tensor.FromSlice(6, 1, []float32{0.1, -0.2, 0.3, 0.4, -0.5, 0.6})
	chain := func(tp *autograd.Tape) (score, act *autograd.Var) {
		score = EdgeScore(nil, g, tp.Const(slv), tp.Const(srv))
		return score, EdgeLeakyReLU(nil, score, 0.2)
	}
	ct := autograd.NewTape()
	ct.BeginCapture()
	score, act := chain(ct)
	ct.EndCapture()

	nan := float32(math.NaN())
	for _, v := range []*autograd.Var{score, act} {
		for i := range v.Value.V {
			v.Value.V[i] = nan
		}
	}
	// Drop the last target: fewer edges than the buffers hold.
	g.NumTargets, g.RowPtr, g.Col = 2, g.RowPtr[:3], g.Col[:5]
	slv.Resize(2, 1)
	copy(slv.V, []float32{-4, 5})
	ct.ReplayForward()

	_, want := chain(autograd.NewTape())
	if !act.Value.SameShape(want.Value) {
		t.Fatalf("replay %dx%d, eager %dx%d", act.Value.R, act.Value.C, want.Value.R, want.Value.C)
	}
	for i := range want.Value.V {
		if math.Float32bits(act.Value.V[i]) != math.Float32bits(want.Value.V[i]) {
			t.Fatalf("edge %d = %g on poisoned outputs, eager %g", i, act.Value.V[i], want.Value.V[i])
		}
	}
}
