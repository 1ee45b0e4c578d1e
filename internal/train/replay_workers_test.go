package train

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// replayWorkersRun trains two epochs and hashes the machine (every device's
// clocks and DeviceStats, worker 0's trace), every epoch's statistics, the
// step-graph counters and every worker's final parameters. Gradient
// buckets close at 4 KiB.
func replayWorkersRun(t *testing.T, ds *dataset.Dataset, opts Options) [2]uint64 {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(2))
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.bucketCap = 4 << 10
	var extra string
	for e := 0; e < 2; e++ {
		extra += fmt.Sprintf("%+v\n", tr.RunEpoch())
	}
	if opts.OverlapGrads && len(tr.ov.buckets) < 2 {
		t.Fatalf("%s: %d gradient bucket(s), want at least 2", opts.Arch, len(tr.ov.buckets))
	}
	gc := tr.GraphStats()
	if gc.Replays == 0 || gc.Scheduled != gc.Replays {
		t.Fatalf("%s: nothing replayed: %+v", opts.Arch, gc)
	}
	h := fnv.New64a()
	for _, mdl := range tr.Models {
		for _, p := range mdl.Params().Params() {
			for _, v := range p.W.V {
				fmt.Fprintf(h, "%08x", math.Float32bits(v))
			}
		}
	}
	return hashMachine(m, fmt.Sprintf("%s%+v\n%x\n", extra, gc, h.Sum64()))
}

// TestReplayWorkersBitIdentical: a replayed step runs its records' math on
// up to tensor.Workers() goroutines while its charges and observers keep
// record order. Scheduled training of every architecture, with and
// without bucketed gradient overlap, on one and two real workers,
// must hash the same at one dense-kernel worker as at two and four: every
// epoch's statistics, the final parameters, every device's clocks and
// DeviceStats, and worker 0's trace.
func TestReplayWorkersBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	ds := smallDataset(t)
	for _, arch := range []string{"gcn", "graphsage", "gat", "gin"} {
		for _, overlap := range []bool{false, true} {
			for _, real := range []int{1, 2} {
				o := smallOpts(arch)
				o.Batch, o.RealWorkers, o.Trace = 4, real, true
				o.Schedule, o.OverlapGrads = true, overlap
				name := fmt.Sprintf("%s/overlap=%v/real=%d", arch, overlap, real)
				tensor.SetWorkers(1)
				want := replayWorkersRun(t, ds, o)
				for _, w := range []int{2, 4} {
					tensor.SetWorkers(w)
					if got := replayWorkersRun(t, ds, o); got != want {
						t.Errorf("%s: %d workers hash %#x, one worker %#x", name, w, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkReplayStep times one replayed training step — forward, loss and
// backward of a kept tape, scheduled — of a GAT with the train_sched_2node
// workload's options on a toy products graph. Run it at -cpu 1 and -cpu 2 to
// see what the replay's second worker buys.
func BenchmarkReplayStep(b *testing.B) {
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.002))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{
		Arch: "gat", Heads: 4, Batch: 128, Fanouts: []int{10, 10}, Hidden: 64,
		Dropout: 0.5, RealWorkers: 1, Seed: 1,
		Schedule: true, Pipeline: true, OverlapGrads: true,
	}
	tr, err := New(sim.NewMachine(sim.DGXA100(2)), ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	tr.RunEpoch() // captures both batch faces
	var batch *gnn.Batch
	for batch = range tr.gs[0].graphs {
		break
	}
	if batch == nil {
		b.Fatal("no step graph captured")
	}
	dev := tr.loaders[0].Device()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.step(0, batch)
		if dev.InGraphReplay() {
			dev.EndGraphReplay()
		}
	}
}
