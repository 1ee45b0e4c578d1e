package sampling

import (
	"fmt"
	"slices"
	"testing"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/dataset"
	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
	"wholegraph/internal/topostore"
	"wholegraph/internal/wholemem"
)

// pagedOutcome is everything a run of paged sampling kernels can be seen to
// have done: what it sampled, what it did to the page cache, and where it
// left the device's two clocks.
type pagedOutcome struct {
	neighbors     []graph.GlobalID
	edgePos       []int64
	offsets       []int64
	stats         topostore.Stats
	compute, copy float64
	// reads is the size of the last second-hop kernel.
	reads int
}

// samplePaged runs three two-hop sampling rounds over csr partitioned with a
// paged column array (or, with paged unset, a resident one) on a fresh
// machine, under a cache of a few dozen pages.
func samplePaged(t *testing.T, csr *graph.CSR, policy blockcache.Policy, paged bool) pagedOutcome {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	l, err := graph.NewLayout(csr, nil, 0, comm.Size(), graph.HashOwner(comm.Size()))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := l.Map(comm, graph.Paging{Topo: paged,
		TopoOpts: topostore.Options{PageEdges: 256, CacheBytes: 48 * (256*8 + 16), Policy: policy}})
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	dev := m.Devs[2]
	s := NewGPUSampler(pg, dev, 21)
	var out pagedOutcome
	var nb0, nb1 Neighborhood
	for round := int64(0); round < 3; round++ {
		targets := make([]graph.GlobalID, 0, 96)
		for v := int64(0); v < 96; v++ {
			targets = append(targets, pg.Owner[(v*37+round*11)%csr.N])
		}
		if ts := pg.PagedTopo(); ts != nil {
			_, e0, _ := pg.Adj(targets[0])
			ts.PrefetchPages(dev, []int32{ts.PageOf(e0), ts.PageOf(e0) + 1})
		}
		s.SampleLayerInto(&nb0, targets, 8)
		s.SampleLayerInto(&nb1, nb0.Neighbors, 8) // a few hundred targets, duplicates included
		for _, nb := range []*Neighborhood{&nb0, &nb1} {
			out.neighbors = append(out.neighbors, nb.Neighbors...)
			out.edgePos = append(out.edgePos, nb.EdgePos...)
			out.offsets = append(out.offsets, nb.Offsets...)
		}
	}
	if ts := pg.PagedTopo(); ts != nil {
		out.stats = ts.Stats()
		if out.stats.Evictions == 0 || out.stats.Hits == 0 || out.stats.PrefetchHits == 0 {
			t.Fatalf("%v: the run left a path untaken: %v", policy, out.stats)
		}
	}
	out.reads = len(nb1.EdgePos)
	out.compute, out.copy = dev.StreamNow(sim.StreamCompute), dev.StreamNow(sim.StreamCopy)
	return out
}

// TestPagedSamplingFanoutEquivalence: the two-phase paged kernel — positions
// on the device's goroutine, column values by a page-disjoint fan-out —
// samples the neighbourhoods of the resident kernel, and with two and four
// claimants it leaves every cache counter and both device clocks exactly
// where the inline read (one worker, and sim.SetParallel(false)) does. Run
// under -race.
func TestPagedSamplingFanoutEquivalence(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	defer sim.SetParallel(sim.SetParallel(true))
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	resident := samplePaged(t, ds.Graph, blockcache.PolicyLRU, false)
	for _, policy := range []blockcache.Policy{blockcache.PolicyLRU, blockcache.PolicyAdmit} {
		want := samplePaged(t, ds.Graph, policy, true)
		if !slices.Equal(want.neighbors, resident.neighbors) || !slices.Equal(want.edgePos, resident.edgePos) ||
			!slices.Equal(want.offsets, resident.offsets) {
			t.Errorf("%v: paged sampling differs from the resident column array", policy)
		}
		check := func(mode string) {
			t.Helper()
			got := samplePaged(t, ds.Graph, policy, true)
			if !slices.Equal(got.neighbors, want.neighbors) || !slices.Equal(got.edgePos, want.edgePos) ||
				!slices.Equal(got.offsets, want.offsets) {
				t.Errorf("%v %s: sampled neighbourhoods differ from the inline read", policy, mode)
			}
			if got.stats != want.stats || got.compute != want.compute || got.copy != want.copy {
				t.Errorf("%v %s: stats %+v clocks %v/%v, inline %+v clocks %v/%v",
					policy, mode, got.stats, got.compute, got.copy, want.stats, want.compute, want.copy)
			}
		}
		for _, w := range []int{2, 4} {
			tensor.SetWorkers(w)
			if blockcache.Claimants(8*64*want.reads) != w { // a read may fill one 64-entry run
				t.Fatalf("a second hop of %d reads is below the fan-out cutoff", want.reads)
			}
			check(fmt.Sprintf("%d workers", w))
		}
		sim.SetParallel(false)
		check("SetParallel(false)")
		sim.SetParallel(true)
		tensor.SetWorkers(1)
	}
}
