package serve_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wholegraph/internal/serve"
)

// TestServeTraceGolden pins a whole request trace — routing, batch
// membership, outcomes, launch and completion times, predicted classes — to
// the hash recorded at commit c94eaae, before requests came from one slab,
// the replica queue became a window over one backing array, the degree
// ranking moved to the store and the router's rank map became a slice. The
// run is overloaded on a short queue with a tight deadline, so requests are
// shed and time out and the queue window wraps many times; Skew and the
// cache-aware policy exercise the ranking and the hot-row caches.
func TestServeTraceGolden(t *testing.T) {
	opts := baseOpts()
	opts.Rate, opts.Requests = 4e6, 6000
	opts.MaxBatch, opts.QueueCap = 8, 24
	opts.Deadline = 60e-6
	opts.CacheRows, opts.Skew, opts.Policy = 100, 1.3, serve.PolicyCacheAware
	res := run(t, testDataset(t), 4, opts)
	if res.Shed == 0 || res.TimedOut == 0 || res.Served == 0 {
		t.Fatalf("run does not exercise every outcome: served %d, shed %d, timed out %d", res.Served, res.Shed, res.TimedOut)
	}
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, q := range res.Trace {
		put(uint64(q.Node))
		put(uint64(q.Replica))
		put(uint64(q.Outcome))
		put(math.Float64bits(q.Arrival))
		put(math.Float64bits(q.Start))
		put(math.Float64bits(q.Done))
		put(uint64(q.Batch))
		put(uint64(q.BatchSize))
		put(uint64(q.Class))
	}
	const want = 0x01e6855ef8b0f27d
	if got := h.Sum64(); got != want {
		t.Errorf("trace hash %#016x, want %#016x (served %d, shed %d, timed out %d)", got, uint64(want), res.Served, res.Shed, res.TimedOut)
	}
}
