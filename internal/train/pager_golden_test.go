package train

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
)

// pagerGolden is what an out-of-core run charged at commit 1ee8447, before
// the two paged stores shared internal/blockcache's Table: papers100M x 5e-4
// generated out of core, both stores paged at a quarter of what they serve,
// PrefetchPages 8, two real workers, two epochs. Three FNV-1a hashes per
// configuration — every device's two stream clocks and DeviceStats, worker
// 0's trace (tag, start, end, stream) and both stores' shape and cache
// counters, field by field (hashStore). A different hash is a change of
// virtual time, of a counter or of the order of fault services, not of host
// cost. The third hash was re-recorded at commit e24b3e1, when it stopped
// hashing the stores' report strings; the first two are 1ee8447's.
var pagerGolden = map[string][3]uint64{
	"lru/pipeline=false":   {0x755e680845849796, 0xf289abd952176eb6, 0x8aeec02c8bc3d2cd},
	"lru/pipeline=true":    {0x4e921137134e19d1, 0x10d4cd6a991893dc, 0x348689af38a129e8},
	"admit/pipeline=false": {0xb2d0a76d095df3c7, 0x57020100cebc2b2a, 0x659a8e11e5f7e8ca},
	"admit/pipeline=true":  {0xf5da12c03d59a357, 0x4b9f090e379e1d02, 0x90f4bd977bd4ebd2},
}

func pagerGoldenRun(t *testing.T, policy string, pipeline bool) [3]uint64 {
	t.Helper()
	spec := dataset.OgbnPapers100M.Scaled(5e-4)
	ds, err := dataset.GenerateOutOfCore(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Arch: "graphsage", Batch: 8, Fanouts: []int{5, 5}, Hidden: 16, LR: 0.01, Seed: 11,
		RealWorkers: 2, Trace: true, Pipeline: pipeline,
		PagedFeatures: true, FeatPageRows: 16,
		FeatCacheMB: int(spec.Nodes * int64(spec.FeatDim) * 4 / 4 >> 20),
		PagedTopo:   true, TopoPageEdges: 512,
		TopoCacheMB:   int(ds.Topo.NumEdges() * 8 / 4 >> 20),
		PrefetchPages: 8, CachePolicy: policy,
	}
	m := sim.NewMachine(sim.DGXA100(1))
	tr, err := New(m, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpoch()
	tr.RunEpoch()

	var out [3]uint64
	h := fnv.New64a()
	for _, d := range m.Devs {
		fmt.Fprintf(h, "%v %v %+v\n", d.StreamNow(sim.StreamCompute), d.StreamNow(sim.StreamCopy), d.Stats)
	}
	out[0] = h.Sum64()
	h.Reset()
	for _, iv := range m.Devs[0].Trace() {
		fmt.Fprintf(h, "%s %v %v %d\n", iv.Tag, iv.Start, iv.End, iv.Stream)
	}
	out[1] = h.Sum64()
	h.Reset()
	fs, ts := tr.FeatStoreStats(), tr.TopoStoreStats()
	hashStore(h, fs)
	hashStore(h, ts)
	out[2] = h.Sum64()
	if fs.Evictions == 0 || ts.Evictions == 0 || fs.PrefetchHits+ts.PrefetchHits == 0 {
		t.Errorf("%s pipeline=%v: run too small to exercise the pager: %v / %v", policy, pipeline, fs, ts)
	}
	if policy == "admit" && fs.AdmissionRejects+ts.AdmissionRejects == 0 {
		t.Errorf("admit pipeline=%v: no admission rejects: %v / %v", pipeline, fs, ts)
	}
	return out
}

// hashStore writes one paged store's shape — page size, pages, table bytes,
// per-node budget sum, devices, policy — and every cache counter.
func hashStore(w io.Writer, st blockcache.Stats) {
	c := st.CacheStats
	fmt.Fprintf(w, "%d %d %d %d %d %s | %d %d %d %d %d %d %d %d %d\n",
		st.PageItems, st.Pages, st.TableBytes, st.CacheBytes, st.Devices, st.Policy,
		c.Hits, c.Misses, c.Evictions, c.PrefetchHits, c.AdmissionRejects,
		c.ResidentBytes, c.ResidentPages, c.CapacityBytes, c.PagesAllocated)
}

// TestPagerGolden pins the virtual clock, the counters and the trace of an
// out-of-core run to the values recorded before the pager refactor.
func TestPagerGolden(t *testing.T) {
	for _, policy := range []string{"lru", "admit"} {
		for _, pipeline := range []bool{false, true} {
			name := fmt.Sprintf("%s/pipeline=%v", policy, pipeline)
			got := pagerGoldenRun(t, policy, pipeline)
			if want := pagerGolden[name]; got != want {
				t.Errorf("%q: {%#016x, %#016x, %#016x},\n\twant {%#016x, %#016x, %#016x} (clocks+stats, trace, stores)",
					name, got[0], got[1], got[2], want[0], want[1], want[2])
			}
		}
	}
}
