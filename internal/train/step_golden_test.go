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
// cost. The two Schedule rows were re-recorded when each worker came to
// keep one step graph that reads every batch through the worker's own input
// header: a worker captures once instead of once per loader face, and the
// fresh-batch loader replays instead of falling back to eager.
var stepGolden = map[string][2]uint64{
	"graphsage/eager+overlap": {0x3bdc00e8cea9aa53, 0xfa6780af897bc08e},
	"gat/sched":               {0x49587e74bba233b8, 0x467919790ab61305},
	"gcn/fresh-batches":       {0xd069298f10159d2d, 0x98ee2234fbff00a1},
}

// freshBatchLoader hands out a new *gnn.Batch from every build, over the
// same slot buffers: no batch object is ever seen twice.
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
	// The counters in the line GraphCounters.String printed when the rows
	// were recorded, so that the hash pins the counters and not the wording
	// of the report.
	extra += fmt.Sprintf("step graphs: %d captures / %d replays (%d scheduled), %d invalidations, %d fallbacks\n",
		gc.Captures, gc.Replays, gc.Scheduled, gc.Invalidations, gc.Fallbacks)
	if opts.OverlapGrads && len(tr.ov.buckets) < 2 {
		t.Errorf("%s: %d gradient bucket(s), want at least 2", opts.Arch, len(tr.ov.buckets))
	}
	if opts.Schedule && (gc.Captures != int64(opts.RealWorkers) || gc.Replays == 0 || gc.Scheduled != gc.Replays) {
		t.Errorf("%s: want one capture per worker and scheduled replays: %+v", opts.Arch, gc)
	}
	return hashMachine(m, extra)
}

// TestStepGolden pins every shape a training step takes — eager with
// bucketed gradient overlap, and capture then scheduled replay from the
// core loader and from a loader that never reuses a batch object — to the
// clocks, counters and trace recorded before the step paths were merged.
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
		{"gcn/fresh-batches", fresh, 0, true},
	}
	for _, r := range runs {
		got := stepGoldenRun(t, r.opts, r.bucket, r.fresh)
		if want := stepGolden[r.name]; got != want {
			t.Errorf("%q: {%#016x, %#016x},\n\twant {%#016x, %#016x} (clocks+stats+epochs+graphs, trace)",
				r.name, got[0], got[1], want[0], want[1])
		}
	}
}
