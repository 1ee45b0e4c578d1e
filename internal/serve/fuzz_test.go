package serve_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"wholegraph/internal/serve"
)

// FuzzServe drives the batcher with random arrival rates, stream lengths,
// batch caps, delays, deadlines, queue bounds, routing policy spellings,
// skews and cache sizes on a tiny dataset. A spelling other than "" or
// PolicyCacheAware must be refused. Either Validate rejects the options (or
// Run reports an arrival clock that overflows), or the run keeps its books:
// every offered request is served, shed or timed out; a served request
// launches no earlier than it arrived and completes no earlier than it
// launched; no batch exceeds MaxBatch; with no cache, routing sends each
// request to its node's owner rank; and a second deployment given the same
// input produces an equal trace.
func FuzzServe(f *testing.F) {
	type in struct {
		rate               float64
		requests, maxBatch int
		maxDelay, deadline float64
		queueCap           int
		policy             uint8
		skew               float64
		cacheRows          int
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []in{
		{5000, 300, 16, 0.5e-3, 0, 0, 0, 0, 0},
		{4e6, 600, 8, 0.5e-3, 60e-6, 24, 1, 1.3, 100}, // overloaded: sheds and times out
		{80000, 400, 1, 0, 0, 0, 2, 1.5, 300},
		{20000, 300, 4, 1e-3, 1e-3, 8, 3, 0, 50},
		{nan, 100, 16, 0, 0, 0, 0, 0, 0},    // hung the batcher
		{5000, 100, 16, nan, 0, 0, 0, 0, 0}, // ran the clock backwards
		{5000, 100, 16, inf, 0, 0, 0, 0, 0}, // infinite p99, zero throughput
		{5000, 100, 16, 0, nan, 0, 0, 0, 0},
		{5000, 100, 16, 0, 0, 0, 0, nan, 0},
		{5e-324, 10, 4, 0, 0, 0, 0, 0, 0}, // arrivals past the largest float64
		{5000, 100, 16, 0, 0, 0, 4, 0, 0}, // unknown policy
		{80000, 400, 1, 0, 0, 0, 0, 1.5, 300},
		{20000, 300, 4, 1e-3, 1e-3, 8, 1, 0, 0},
	} {
		f.Add(c.rate, c.requests, c.maxBatch, c.maxDelay, c.deadline, c.queueCap, c.policy, c.skew, c.cacheRows)
	}
	ds := testDataset(f)
	policies := []serve.Policy{"", serve.PolicyCacheAware, "owner", "rr", "bogus"}
	f.Fuzz(func(t *testing.T, rate float64, requests, maxBatch int, maxDelay, deadline float64,
		queueCap int, policy uint8, skew float64, cacheRows int) {
		// Bound the sizes so one input runs in milliseconds; the sign is
		// kept, so negative values still reach Validate.
		opts := serve.Options{
			Rate: rate, Requests: requests % 2048, MaxBatch: maxBatch % 65,
			MaxDelay: maxDelay, Deadline: deadline, QueueCap: queueCap % 513,
			CacheRows: cacheRows % 4096, Fanouts: []int{3, 3}, Skew: skew,
			Policy: policies[int(policy)%len(policies)], Seed: 5,
		}
		err := opts.Normalize().Validate()
		if p := opts.Policy; p != "" && p != serve.PolicyCacheAware && err == nil {
			t.Fatalf("routing policy %q accepted", p)
		}
		if err != nil {
			return
		}
		runOnce := func() (*serve.Server, *serve.Result) {
			_, s := newServer(t, ds, 2, opts)
			res, err := s.Run()
			if err != nil {
				if !strings.Contains(err.Error(), "Rate") {
					t.Fatal(err)
				}
				return s, nil
			}
			return s, res
		}
		s, res := runOnce()
		if res == nil {
			return
		}
		o := s.Opts
		if got := res.Served + res.Shed + res.TimedOut; got != res.Offered || res.Offered != o.Requests {
			t.Fatalf("served %d + shed %d + timed out %d = %d, offered %d of %d",
				res.Served, res.Shed, res.TimedOut, got, res.Offered, o.Requests)
		}
		for _, q := range res.Trace {
			if q.Outcome == serve.OutcomeServed && !(q.Arrival <= q.Start && q.Start <= q.Done) {
				t.Fatalf("request %d: arrival %g, start %g, done %g", q.ID, q.Arrival, q.Start, q.Done)
			}
			if q.BatchSize > o.MaxBatch {
				t.Fatalf("request %d in a batch of %d, MaxBatch %d", q.ID, q.BatchSize, o.MaxBatch)
			}
			if o.CacheRows == 0 {
				if owner := s.Store.PG.Owner[q.Node].Rank(); q.Replica != owner {
					t.Fatalf("request %d for node %d routed to replica %d, owner %d", q.ID, q.Node, q.Replica, owner)
				}
			}
		}
		if _, again := runOnce(); !reflect.DeepEqual(res.Trace, again.Trace) {
			t.Fatal("two runs of one input differ")
		}
	})
}
