package infer

import (
	"math"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
)

func testSetup(t *testing.T, arch string) (*sim.Machine, *core.Store, gnn.Model) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.0002)) // ~480 nodes
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewStore(m, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: 8, Classes: ds.Spec.NumClasses,
		Layers: 2, Heads: 2, Backend: spops.BackendNative, Seed: 4,
	}
	m.Reset()
	return m, store, gnn.New(arch, cfg)
}

func TestFullGraphShapesAndCharging(t *testing.T) {
	m, store, model := testSetup(t, "gcn")
	out, err := FullGraph(store, model)
	if err != nil {
		t.Fatal(err)
	}
	if int64(out.R) != store.DS.Graph.N || out.C != store.DS.Spec.NumClasses {
		t.Fatalf("output %dx%d", out.R, out.C)
	}
	if m.MaxTime() == 0 {
		t.Error("inference charged nothing")
	}
	// Every row should be finite and not identically zero across the board.
	var nonzero int
	for _, v := range out.V {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite output")
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("all-zero inference output")
	}
}

// TestFullGraphMatchesSampledInference checks the key semantic: for a
// sampling fanout that covers every neighbor, the mini-batch forward pass
// must produce the same logits as layer-wise full-graph inference.
func TestFullGraphMatchesSampledInference(t *testing.T) {
	for _, arch := range []string{"gcn", "graphsage", "gat"} {
		m, store, model := testSetup(t, arch)
		full, err := FullGraph(store, model)
		if err != nil {
			t.Fatal(err)
		}

		maxDeg := int(store.DS.Graph.MaxDegree())
		ld := core.NewLoader(store, m.Devs[0], []int{maxDeg + 1, maxDeg + 1}, 1)
		targets := []int64{0, 7, 31, 100}
		b, _ := ld.BuildBatch(targets)
		logits := forward(model, b)

		for i, v := range targets {
			for j := 0; j < logits.C; j++ {
				got := logits.At(i, j)
				want := full.At(int(v), j)
				if math.Abs(float64(got-want)) > 1e-2*math.Max(1, math.Abs(float64(want))) {
					t.Fatalf("%s node %d class %d: sampled %g vs full %g", arch, v, j, got, want)
				}
			}
		}
	}
}

func forward(model gnn.Model, b *gnn.Batch) *tensor.Dense {
	return model.Forward(nil, autograd.NewTape(), b, false).Value
}

func TestFullGraphErrors(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewStore(m, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong input dimension.
	cfg := gnn.Config{InDim: 3, Hidden: 8, Classes: 4, Layers: 1, Heads: 2, Seed: 1}
	if _, err := FullGraph(store, gnn.NewGCN(cfg)); err == nil {
		t.Error("dim mismatch accepted")
	}
	// Featureless store.
	store.PG.Feat = nil
	store.PG.SetFeatures(nil)
	cfg.InDim = ds.Spec.FeatDim
	if _, err := FullGraph(store, gnn.NewGCN(cfg)); err == nil {
		t.Error("featureless store accepted")
	}
}
