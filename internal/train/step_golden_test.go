package train

import (
	"fmt"
	"testing"

	"wholegraph/internal/core"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
)

// stepGolden is what three training-step shapes charged at commit bbbcb5c,
// before eager, capture, replay and scheduled replay became one step
// function: two FNV-1a hashes per run (hashMachine) — every device's two
// stream clocks and DeviceStats plus every epoch's statistics and the
// trainer's GraphStats, and worker 0's trace. A different hash is a change
// of virtual time, of a counter or of the order of charges, not of host
// cost.
var stepGolden = map[string][2]uint64{
	"graphsage/eager+overlap":    {0x3bdc00e8cea9aa53, 0xfa6780af897bc08e},
	"gat/sched":                  {0x1e1fd600c8389aa8, 0xc58f9a93899d13b0},
	"gcn/fresh-batches-fallback": {0x4dbad446f63f0635, 0x9cf3796c890a06ca},
}

// freshBatchLoader hands out a new *gnn.Batch from every build, over the
// same slot buffers, so step capture never finds a batch it has seen: it
// captures maxGraphsPerWorker times and then falls back to eager.
type freshBatchLoader struct{ *core.Loader }

func (l freshBatchLoader) BuildBatch(targets []int64) (*gnn.Batch, core.Timing) {
	b, tm := l.Loader.BuildBatch(targets)
	nb := *b
	return &nb, tm
}

// stepGoldenRun trains three epochs on two nodes and hashes the machine,
// the epochs and the step-graph counters. Gradient buckets close at bucket
// bytes, or at the default for 0.
func stepGoldenRun(t *testing.T, opts Options, bucket int, fresh bool) [2]uint64 {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(2))
	ds := smallDataset(t)
	var tr *Trainer
	var err error
	if fresh {
		store, serr := core.NewStore(m, 0, ds)
		if serr != nil {
			t.Fatal(serr)
		}
		tr, err = NewCustom(m, ds, opts, func(w int, dev *sim.Device) BatchLoader {
			return freshBatchLoader{core.NewLoader(store, dev, opts.Fanouts, opts.Seed+int64(w))}
		})
	} else {
		tr, err = New(m, ds, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bucket > 0 {
		tr.bucketCap = bucket
	}
	if tr.ItersPerEpoch() < 5 {
		t.Fatalf("%s: %d iterations per epoch: too small to pin capture and replay", opts.Arch, tr.ItersPerEpoch())
	}
	var extra string
	for e := 0; e < 3; e++ {
		extra += fmt.Sprintf("%+v\n", tr.RunEpoch())
	}
	gc := tr.GraphStats()
	extra += fmt.Sprintf("%+v\n", gc)
	if opts.OverlapGrads && len(tr.ov.buckets) < 2 {
		t.Errorf("%s: %d gradient bucket(s), want at least 2", opts.Arch, len(tr.ov.buckets))
	}
	switch {
	case fresh && (gc.Captures != maxGraphsPerWorker*2 || gc.Fallbacks != 2 || gc.Replays != 0):
		t.Errorf("fresh batches: want %d captures, 2 fallbacks, no replay: %+v", maxGraphsPerWorker*2, gc)
	case !fresh && opts.Schedule && (gc.Replays == 0 || gc.Scheduled != gc.Replays):
		t.Errorf("%s: no scheduled replay: %+v", opts.Arch, gc)
	}
	return hashMachine(m, extra)
}

// TestStepGolden pins every shape a training step takes — eager with
// bucketed gradient overlap, scheduled replay, and the permanent eager
// fallback of a loader that never reuses a batch — to the clocks, counters
// and trace recorded before the step paths were merged.
func TestStepGolden(t *testing.T) {
	base := func(arch string) Options {
		o := smallOpts(arch)
		o.Batch, o.RealWorkers, o.Trace = 2, 2, true
		return o
	}
	sage := base("graphsage")
	sage.OverlapGrads = true
	gatSched := base("gat")
	gatSched.Schedule = true
	fresh := base("gcn")
	fresh.Schedule = true
	runs := []struct {
		name   string
		opts   Options
		bucket int
		fresh  bool
	}{
		{"graphsage/eager+overlap", sage, 16 << 10, false},
		{"gat/sched", gatSched, 0, false},
		{"gcn/fresh-batches-fallback", fresh, 0, true},
	}
	for _, r := range runs {
		got := stepGoldenRun(t, r.opts, r.bucket, r.fresh)
		if want := stepGolden[r.name]; got != want {
			t.Errorf("%q: {%#016x, %#016x},\n\twant {%#016x, %#016x} (clocks+stats+epochs+graphs, trace)",
				r.name, got[0], got[1], want[0], want[1])
		}
	}
}
