package train

import (
	"fmt"
	"sync"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
)

// fuzzDS is the one dataset FuzzStepShapes trains on: generating it takes
// longer than a small run, and training never writes to it.
var fuzzDS = sync.OnceValues(func() (*dataset.Dataset, error) {
	return dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
})

// stepShapesRun trains a fresh trainer on nodes DGX nodes for three epochs
// and returns the epochs' statistics, every replica's final parameters, the
// machine's hash under hashMachine and the capture counters.
func stepShapesRun(t *testing.T, opts Options, nodes int) ([]EpochStats, [][][]float32, [2]uint64, GraphCounters) {
	t.Helper()
	ds, err := fuzzDS()
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(sim.DGXA100(nodes))
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats []EpochStats
	var epochs string
	for e := 0; e < 3; e++ {
		st := tr.RunEpoch()
		stats = append(stats, st)
		epochs += fmt.Sprintf("%+v\n", st)
	}
	var params [][][]float32
	for _, mdl := range tr.Models {
		var ps [][]float32
		for _, p := range mdl.Params().Params() {
			ps = append(ps, append([]float32(nil), p.W.V...))
		}
		params = append(params, ps)
	}
	return stats, params, hashMachine(m, epochs), tr.GraphStats()
}

// FuzzStepShapes is the differential test of the three step paths over
// random models and batch shapes: whatever the architecture, depth, width,
// head count, backend, fanout, batch, real workers, nodes and gradient
// overlap (with one bucket per parameter or one for all), eager execution,
// CaptureGraph and Schedule agree bit for bit on every epoch's loss and
// accuracy and on every replica's final parameters, and two fresh scheduled
// runs of one input leave machines that hash equal.
func FuzzStepShapes(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(8), uint8(2), uint8(0), uint8(4), uint8(8), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(2), uint8(2), uint8(3), uint8(6), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(0), uint8(1), uint8(5), uint8(1), uint8(1), uint8(2), uint8(5), uint8(0), uint8(1), uint8(2))
	f.Add(uint8(3), uint8(3), uint8(6), uint8(3), uint8(0), uint8(1), uint8(4), uint8(1), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, arch, depth, width, heads, backend, fanout, batch, workers, nodes, overlap uint8) {
		archs := []string{"gcn", "graphsage", "gat", "gin"}
		opts := Options{
			Arch:        archs[int(arch)%len(archs)],
			Batch:       4 + int(batch%13),
			Hidden:      1 + int(width%16),
			Heads:       1 + int(heads%3),
			Dropout:     0.2,
			LR:          0.01,
			Backend:     spops.Backend(backend % 3),
			Seed:        int64(arch) + 7*int64(width),
			RealWorkers: 1 + int(workers%2),
			Trace:       true,
			// overlap%3: 0 blocking, 1 a bucket per parameter, 2 one bucket.
			OverlapGrads: overlap%3 != 0,
			BucketBytes:  1,
		}
		if overlap%3 == 2 {
			opts.BucketBytes = 1 << 30
		}
		if opts.Arch == "gat" {
			opts.Hidden = opts.Heads * (1 + int(width%6))
		}
		for l := 0; l <= int(depth%3); l++ {
			opts.Fanouts = append(opts.Fanouts, 1+int(fanout+uint8(l))%6)
		}
		n := 1 + int(nodes%2)
		label := fmt.Sprintf("%s depth %d hidden %d heads %d %v fanouts %v batch %d workers %d nodes %d overlap %v/%d",
			opts.Arch, len(opts.Fanouts), opts.Hidden, opts.Heads, opts.Backend, opts.Fanouts, opts.Batch,
			opts.RealWorkers, n, opts.OverlapGrads, opts.BucketBytes)

		captured, scheduled := opts, opts
		captured.CaptureGraph = true
		scheduled.Schedule = true
		eStats, eParams, _, _ := stepShapesRun(t, opts, n)
		cStats, cParams, _, cc := stepShapesRun(t, captured, n)
		sStats, sParams, sHash, sc := stepShapesRun(t, scheduled, n)
		compareRuns(t, label+": captured", eStats, cStats, eParams, cParams)
		compareRuns(t, label+": scheduled", eStats, sStats, eParams, sParams)
		if cc.Replays == 0 || sc.Scheduled == 0 {
			t.Fatalf("%s: nothing replayed (%v; %v)", label, cc, sc)
		}
		if _, _, again, _ := stepShapesRun(t, scheduled, n); again != sHash {
			t.Fatalf("%s: two fresh scheduled runs hash %x and %x", label, sHash, again)
		}
	})
}
