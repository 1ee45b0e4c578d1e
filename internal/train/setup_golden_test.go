package train

import (
	"fmt"
	"slices"
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

// pagedSetupGolden is what train.New charged for paged stores at commit
// c19218f, when the paged-feature store re-placed the graph for itself and
// the paged-topology store built its own placement and row pointers: the
// same three hashes, for a 2-node trainer with PagedFeatures over the
// weighted in-core dataset (row pointers, columns, edge weights) and with
// PagedTopo and PagedFeatures over the out-of-core dataset (row pointers,
// then the topology store).
var pagedSetupGolden = map[string][3]uint64{
	"2node/paged-features/weighted": {0x91557c2f3b20cd25, 0xf4d84cc8548b73df, 0x4546684924927b51},
	"2node/out-of-core":             {0x6e5421c0133ad4f5, 0xc96c35a9c4a34416, 0xd74848eb977f91e5},
}

func setupGoldenRun(t *testing.T, nodes int, weighted bool) [3]uint64 {
	t.Helper()
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = weighted
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return setupGoldenTrain(t, nodes, ds, smallOpts("graphsage"))
}

// setupGoldenTrain builds a traced two-worker trainer over ds on nodes
// machine nodes and hashes its set-up, one epoch and worker 0's trace.
func setupGoldenTrain(t *testing.T, nodes int, ds *dataset.Dataset, opts Options) [3]uint64 {
	t.Helper()
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

// pagedGoldenRuns returns the paged set-up runs by pagedSetupGolden's keys.
func pagedGoldenRuns(t *testing.T) map[string]func() [3]uint64 {
	return map[string]func() [3]uint64{
		"2node/paged-features/weighted": func() [3]uint64 {
			spec := dataset.OgbnProducts.Scaled(0.001)
			spec.Weighted = true
			ds, err := dataset.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := smallOpts("graphsage")
			opts.PagedFeatures, opts.FeatPageRows = true, 16
			return setupGoldenTrain(t, 2, ds, opts)
		},
		"2node/out-of-core": func() [3]uint64 {
			ds, err := dataset.GenerateOutOfCore(dataset.OgbnProducts.Scaled(0.001))
			if err != nil {
				t.Fatal(err)
			}
			opts := smallOpts("graphsage")
			opts.PagedFeatures, opts.PagedTopo = true, true
			opts.FeatPageRows, opts.TopoPageEdges = 16, 64
			return setupGoldenTrain(t, 2, ds, opts)
		},
	}
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
	for name, run := range pagedGoldenRuns(t) {
		if got, want := run(), pagedSetupGolden[name]; got != want {
			t.Errorf("%q: {%#016x, %#016x, %#016x},\n\twant {%#016x, %#016x, %#016x} (setup, epoch, trace)",
				name, got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
}

// TestStoresShareOneLayout: the stores of a multi-node trainer map the
// dataset's one host layout — node n's row pointers and edge weights are
// node 0's arrays, and every store's columns and features read the dataset's
// own CSR and slab in place — yet each store has allocations of its own, so
// a backing kind set on one store does not reach another; and two stores
// built at once over a fresh dataset still share one layout, computed once.
// Paged stores share it too (pagedStoresShareOneLayout).
func TestStoresShareOneLayout(t *testing.T) {
	spec := dataset.OgbnProducts.Scaled(0.001)
	spec.Weighted = true
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A store reads the dataset's own CSR and slab in place: what is written
	// there shows through its Col and Feat at once.
	dim := int64(spec.FeatDim)
	readsDataset := func(p *graph.Partitioned) bool {
		for r := 0; r < p.Comm.Size(); r++ {
			v := p.Orig[r][0]
			gid, lo := p.Owner[v], ds.Graph.RowPtr[v]
			_, e0, deg := p.Adj(gid)
			if deg == 0 {
				continue
			}
			col, feat := ds.Graph.Col[lo], ds.Feat[v*dim]
			ds.Graph.Col[lo], ds.Feat[v*dim] = v, -7
			ok := p.Col.Get(e0) == uint64(gid) && p.Feat.Get(p.FeatRow(gid)*dim) == -7
			ds.Graph.Col[lo], ds.Feat[v*dim] = col, feat
			if !ok {
				return false
			}
		}
		return true
	}
	sameShards := func(a, b *graph.Partitioned) bool {
		for r := 0; r < a.Comm.Size(); r++ {
			if &a.RowPtr.Shard(r)[0] != &b.RowPtr.Shard(r)[0] || &a.EdgeW.Shard(r)[0] != &b.EdgeW.Shard(r)[0] {
				return false
			}
		}
		return readsDataset(a) && readsDataset(b)
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
	t.Run("paged", pagedStoresShareOneLayout)
}

// pagedStoresShareOneLayout: paged stores map the dataset's one host layout
// too. In a 2-node trainer with paged features over a weighted
// dataset, and with paged topology over an in-core and an out-of-core
// dataset, node 1's row pointers (and edge weights, where weighted) are node
// 0's arrays and DegreeOrder is computed once; a paged-topology store reads
// every neighbour through its own topostore, even over an in-core CSR. The
// layout an out-of-core dataset builds from its generator places nodes and
// row pointers as the one its in-RAM twin builds from the CSR.
func pagedStoresShareOneLayout(t *testing.T) {
	products := dataset.OgbnProducts.Scaled(0.001)
	weighted := products
	weighted.Weighted = true
	cases := []struct {
		name        string
		spec        dataset.Spec
		outOfCore   bool
		feat, topo  bool
		wantWeights bool
	}{
		{"paged-features/weighted", weighted, false, true, false, true},
		{"paged-topo/in-core", products, false, false, true, false},
		{"paged-topo/out-of-core", products, true, true, true, false},
	}
	for _, c := range cases {
		gen := dataset.Generate
		if c.outOfCore {
			gen = dataset.GenerateOutOfCore
		}
		ds, err := gen(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := smallOpts("graphsage")
		opts.PagedFeatures, opts.PagedTopo = c.feat, c.topo
		tr, err := New(sim.NewMachine(sim.DGXA100(2)), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		s0, s1 := tr.Stores[0].PG, tr.Stores[1].PG
		for r := 0; r < s0.Comm.Size(); r++ {
			if &s0.RowPtr.Shard(r)[0] != &s1.RowPtr.Shard(r)[0] {
				t.Errorf("%s: rank %d's row pointers are not node 0's", c.name, r)
			}
			if (s0.EdgeW != nil) != c.wantWeights || c.wantWeights && &s0.EdgeW.Shard(r)[0] != &s1.EdgeW.Shard(r)[0] {
				t.Errorf("%s: rank %d's edge weights are not node 0's", c.name, r)
			}
		}
		if &s0.DegreeOrder()[0] != &s1.DegreeOrder()[0] {
			t.Errorf("%s: DegreeOrder computed per store", c.name)
		}
		if !c.topo {
			continue
		}
		if s0.Col != nil || s1.PagedTopo() == nil || s0.PagedTopo() == s1.PagedTopo() {
			t.Errorf("%s: a paged-topology store is not served by a topostore of its own", c.name)
		}
		for v := int64(0); v < s1.N; v++ {
			if nbrs, _, deg := s1.Adj(s1.Owner[v]); nbrs != nil && deg > 0 {
				t.Fatalf("%s: node %d's neighbours came from the CSR, not the topostore", c.name, v)
			}
		}
	}

	ooc, err := dataset.GenerateOutOfCore(products)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := dataset.MaterializeOutOfCore(products)
	if err != nil {
		t.Fatal(err)
	}
	mapped := func(ds *dataset.Dataset, pg graph.Paging) *graph.Partitioned {
		l, err := ds.HashLayout(4)
		if err != nil {
			t.Fatal(err)
		}
		comm, err := wholemem.NewComm(sim.NewMachine(sim.DGXA100(1)).NodeDevs(0)[:4])
		if err != nil {
			t.Fatal(err)
		}
		p, err := l.Map(comm, pg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fromTopo, fromGraph := mapped(ooc, graph.Paging{Topo: true, Features: true}), mapped(twin, graph.Paging{})
	if !slices.Equal(fromTopo.Owner, fromGraph.Owner) || !slices.EqualFunc(fromTopo.Orig, fromGraph.Orig, slices.Equal) {
		t.Error("the layout built from Topo places nodes unlike the one built from Graph")
	}
	for r := 0; r < 4; r++ {
		if !slices.Equal(fromTopo.RowPtr.Shard(r), fromGraph.RowPtr.Shard(r)) {
			t.Errorf("rank %d: the layout built from Topo has other row pointers than the one built from Graph", r)
		}
	}
}
