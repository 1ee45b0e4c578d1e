package train

import (
	"fmt"
	"sync"
	"testing"

	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

// setupGolden is what train.New charged at commit 0a42e63, when every node's
// store copied the hash partition's host arrays for itself: three FNV-1a
// hashes per run. The first covers every device's two stream clocks and
// DeviceStats right after New — the per-rank mallocs, the IPC-handle
// AllGather's NVLink bytes, the IPC idle and the barriers of every table, edge
// weights included. The second covers the same after m.Reset() and one epoch,
// plus the epoch's statistics; the third worker 0's trace of that epoch.
var setupGolden = map[string][3]uint64{
	"2node/weighted=false": {0x8214732d8dc156d1, 0x95d31e40eb77e2f9, 0x75b7fd8aac2a925d},
	"2node/weighted=true":  {0x360f464686140c17, 0x7261f6b31d39e7c0, 0x2770a7e038618c11},
	"8node/weighted=false": {0xe60ec6b03f1e6a75, 0x680ce129972a5df0, 0x0bbe66b83a6ef509},
	"8node/weighted=true":  {0x33ccb4553897b44d, 0x2c0510f014f05975, 0x798175618b3edfd4},
}

func setupGoldenRun(t *testing.T, nodes int, weighted bool) [3]uint64 {
	t.Helper()
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = weighted
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts("graphsage")
	opts.Batch, opts.RealWorkers, opts.Trace = 4, 2, true
	m := sim.NewMachine(sim.DGXA100(nodes))
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Devs[len(m.Devs)-1].Stats.NVLinkTxBytes == 0 {
		t.Errorf("%d nodes: the last node's store charged no IPC-handle exchange", nodes)
	}
	setup := hashMachine(m, "")[0]
	m.Reset()
	epoch := hashMachine(m, fmt.Sprintf("%+v\n", tr.RunEpoch()))
	if len(m.Devs[0].Trace()) == 0 {
		t.Errorf("%d nodes: worker 0 traced nothing", nodes)
	}
	return [3]uint64{setup, epoch[0], epoch[1]}
}

// TestSetupGolden pins what building a multi-node trainer charges, and what
// one epoch over it charges, to the values recorded before the stores of a
// machine shared one host layout.
func TestSetupGolden(t *testing.T) {
	for _, nodes := range []int{2, 8} {
		for _, weighted := range []bool{false, true} {
			name := fmt.Sprintf("%dnode/weighted=%v", nodes, weighted)
			got := setupGoldenRun(t, nodes, weighted)
			if want := setupGolden[name]; got != want {
				t.Errorf("%q: {%#016x, %#016x, %#016x},\n\twant {%#016x, %#016x, %#016x} (setup, epoch, trace)",
					name, got[0], got[1], got[2], want[0], want[1], want[2])
			}
		}
	}
}

// TestStoresShareOneLayout: the stores of a multi-node trainer map the
// dataset's one host layout — node n's shards are node 0's arrays, edge
// weights included — yet each store has allocations of its own, so a
// backing kind set on one store does not reach another; and two stores built
// at once over a fresh dataset still share one layout, computed once.
func TestStoresShareOneLayout(t *testing.T) {
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = true
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	sameShards := func(a, b *graph.Partitioned) bool {
		for r := 0; r < a.Comm.Size(); r++ {
			if &a.RowPtr.Shard(r)[0] != &b.RowPtr.Shard(r)[0] || &a.Col.Shard(r)[0] != &b.Col.Shard(r)[0] ||
				&a.Feat.Shard(r)[0] != &b.Feat.Shard(r)[0] || &a.EdgeW.Shard(r)[0] != &b.EdgeW.Shard(r)[0] {
				return false
			}
		}
		return true
	}

	var built [2]*core.Store
	var errs [2]error
	var wg sync.WaitGroup
	for i := range built {
		wg.Add(1)
		go func() {
			defer wg.Done()
			built[i], errs[i] = core.NewStore(sim.NewMachine(sim.DGXA100(1)), 0, ds)
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if !sameShards(built[0].PG, built[1].PG) {
		t.Error("two stores built at once over one dataset hold different host arrays: the layout was computed twice")
	}

	tr, err := New(sim.NewMachine(sim.DGXA100(4)), ds, smallOpts("graphsage"))
	if err != nil {
		t.Fatal(err)
	}
	s0 := tr.Stores[0].PG
	if !sameShards(s0, built[0].PG) {
		t.Error("the trainer's stores do not map the dataset's layout")
	}
	for n, s := range tr.Stores[1:] {
		if !sameShards(s.PG, s0) {
			t.Errorf("node %d's store does not share node 0's shards", n+1)
		}
		s.PG.Feat.WithKind(wholemem.DeviceUM)
		if s.PG.Feat.Kind() != wholemem.DeviceUM || s0.Feat.Kind() != wholemem.DeviceP2P {
			t.Errorf("WithKind on node %d's features moved node 0's kind to %v", n+1, s0.Feat.Kind())
		}
	}
}
