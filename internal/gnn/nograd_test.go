package gnn

import (
	"math"
	"math/rand"
	"testing"

	"wholegraph/internal/autograd"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
)

// devState is what a forward leaves on its device: both stream clocks and
// the counters.
type devState struct {
	compute, copyNow float64
	stats            sim.DeviceStats
}

func stateOf(d *sim.Device) devState {
	return devState{d.StreamNow(sim.StreamCompute), d.StreamNow(sim.StreamCopy), d.Stats}
}

// forwardBoth runs m's evaluation forward over b twice on arena tapes, each
// from zeroed clocks on the machine's first device: recording (Reset) and
// no-grad (ResetNoGrad). It fails unless the logits match bit for bit, the
// device ends in the same state, the recording tape recorded something and
// the no-grad tape nothing. It returns the no-grad tape and the device so
// callers can rerun the no-grad forward.
func forwardBoth(t testing.TB, m Model, b *Batch) (*autograd.Tape, *sim.Device) {
	t.Helper()
	mach := sim.NewMachine(sim.DGXA100(1))
	dev := mach.Devs[0]
	run := func(tp *autograd.Tape) (*tensor.Dense, devState) {
		mach.Reset()
		logits := m.Forward(dev, tp, b, false).Value
		return logits.Clone(), stateOf(dev)
	}
	rec := autograd.NewTapeArena(tensor.NewArena())
	rec.Reset()
	want, wantDev := run(rec)
	if rec.Len() == 0 {
		t.Fatalf("%s: the recording forward recorded nothing", m.Name())
	}
	ng := autograd.NewTapeArena(tensor.NewArena())
	ng.ResetNoGrad()
	got, gotDev := run(ng)
	if ng.Len() != 0 {
		t.Fatalf("%s: the no-grad forward recorded %d nodes", m.Name(), ng.Len())
	}
	if !got.SameShape(want) {
		t.Fatalf("%s: no-grad logits %dx%d, recording %dx%d", m.Name(), got.R, got.C, want.R, want.C)
	}
	for i := range want.V {
		if math.Float32bits(got.V[i]) != math.Float32bits(want.V[i]) {
			t.Fatalf("%s: no-grad logit %d = %g, recording %g", m.Name(), i, got.V[i], want.V[i])
		}
	}
	if gotDev != wantDev {
		t.Fatalf("%s: device after the no-grad forward %+v, after the recording one %+v", m.Name(), gotDev, wantDev)
	}
	return ng, dev
}

// TestForwardNoGradMatchesRecording pins the no-grad forward to the
// recording one for every architecture (GAT with four heads): same logits
// bit for bit, same stream clocks and device counters, since every forward
// charge is unconditional. A warm no-grad forward on an arena tape then
// allocates nothing at all.
func TestForwardNoGradMatchesRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const inDim, classes = 6, 5
	b := randomBatch(rng, 8, 2, 4, inDim, classes)
	for _, arch := range []string{"gcn", "graphsage", "gat", "gin"} {
		cfg := smallConfig(inDim, classes, spops.BackendNative)
		cfg.Heads = 4
		m := New(arch, cfg)
		tp, dev := forwardBoth(t, m, b)
		forward := func() {
			tp.ResetNoGrad()
			m.Forward(dev, tp, b, false)
		}
		forward() // warm the arena and the models' self-loop scratch
		if n := testing.AllocsPerRun(10, forward); n != 0 {
			t.Errorf("%s: a warm no-grad forward allocated %.1f times, want 0", arch, n)
		}
	}
}

// FuzzForwardNoGrad is the differential test over random architectures and
// batch shapes: whatever the model, depth, width, head count, backend, graph
// size, fanout and batch, the no-grad forward equals the recording forward
// bit for bit and leaves the device in the same state.
func FuzzForwardNoGrad(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(8), uint8(2), uint8(0), uint8(8), uint8(4), int64(1))
	f.Add(uint8(2), uint8(3), uint8(16), uint8(4), uint8(2), uint8(3), uint8(9), int64(2))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(1), uint8(1), uint8(1), uint8(1), int64(3))
	f.Add(uint8(3), uint8(2), uint8(12), uint8(3), uint8(0), uint8(20), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, arch, layers, hidden, heads, backend, batch, fanout uint8, seed int64) {
		archs := []string{"gcn", "graphsage", "gat", "gin"}
		cfg := Config{
			InDim:   3 + int(seed&7),
			Hidden:  1 + int(hidden%24),
			Classes: 2 + int(seed>>3&3),
			Layers:  1 + int(layers%3),
			Heads:   1 + int(heads%4),
			Backend: spops.Backend(backend % 3),
			Seed:    seed,
		}
		name := archs[int(arch)%len(archs)]
		if name == "gat" {
			cfg.Hidden = cfg.Heads * (1 + int(hidden%6))
		}
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, 1+int(batch%24), cfg.Layers, 1+int(fanout%12), cfg.InDim, cfg.Classes)
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		forwardBoth(t, New(name, cfg), b)
	})
}
