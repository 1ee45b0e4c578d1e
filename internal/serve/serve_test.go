package serve_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/serve"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
)

// testDataset generates the small serving graph shared by the tests.
func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// newServer builds a fresh machine with the given replica count, a model
// and a server, and resets the machine so runs measure steady-state
// serving only.
func newServer(t testing.TB, ds *dataset.Dataset, replicas int, opts serve.Options) (*sim.Machine, *serve.Server) {
	t.Helper()
	cfg := sim.DGXA100(1)
	cfg.GPUsPerNode = replicas
	m := sim.NewMachine(cfg)
	model := gnn.NewSAGE(gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: 16, Classes: ds.Spec.NumClasses,
		Layers: len(opts.Normalize().Fanouts), Backend: spops.BackendNative, Seed: 7,
	})
	s, err := serve.New(m, 0, ds, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	return m, s
}

func baseOpts() serve.Options {
	return serve.Options{
		Rate:     5000,
		Requests: 600,
		MaxBatch: 16,
		MaxDelay: 0.5e-3,
		SLO:      20e-3,
		Fanouts:  []int{4, 4},
		Seed:     3,
	}
}

func run(t testing.TB, ds *dataset.Dataset, replicas int, opts serve.Options) *serve.Result {
	t.Helper()
	_, s := newServer(t, ds, replicas, opts)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestServeBasics(t *testing.T) {
	ds := testDataset(t)
	res := run(t, ds, 2, baseOpts())
	if res.Offered != 600 {
		t.Fatalf("offered %d != 600", res.Offered)
	}
	if res.Served+res.Shed+res.TimedOut != res.Offered {
		t.Fatalf("outcome counts %d+%d+%d don't sum to offered %d",
			res.Served, res.Shed, res.TimedOut, res.Offered)
	}
	if res.Served == 0 {
		t.Fatal("nothing served")
	}
	if res.Batches == 0 || res.MeanBatch < 1 {
		t.Fatalf("batches %d, mean batch %.2f", res.Batches, res.MeanBatch)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99 && res.P99 <= res.MaxLatency) {
		t.Fatalf("percentiles not monotone: p50 %g p95 %g p99 %g max %g",
			res.P50, res.P95, res.P99, res.MaxLatency)
	}
	if res.P50 <= 0 {
		t.Fatalf("p50 %g not positive", res.P50)
	}
	if res.Throughput <= 0 || res.Duration <= 0 {
		t.Fatalf("throughput %g duration %g", res.Throughput, res.Duration)
	}
	if res.SLOAttainment < 0 || res.SLOAttainment > 1 {
		t.Fatalf("SLO attainment %g outside [0,1]", res.SLOAttainment)
	}
	for _, q := range res.Trace {
		if q.Outcome != serve.OutcomeServed {
			continue
		}
		if q.Start < q.Arrival {
			t.Fatalf("request %d started %.6f before arrival %.6f", q.ID, q.Start, q.Arrival)
		}
		if q.Done <= q.Start {
			t.Fatalf("request %d done %.6f not after start %.6f", q.ID, q.Done, q.Start)
		}
		if q.BatchSize < 1 || q.BatchSize > 16 {
			t.Fatalf("request %d batch size %d outside [1,16]", q.ID, q.BatchSize)
		}
	}
}

// TestServeDeterministic pins the acceptance criterion: same seed and
// config produce a bit-identical request trace and latency percentiles.
func TestServeDeterministic(t *testing.T) {
	ds := testDataset(t)
	a := run(t, ds, 2, baseOpts())
	b := run(t, ds, 2, baseOpts())
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("request traces differ between identically-seeded runs")
	}
	if a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 {
		t.Fatalf("percentiles differ: (%g,%g,%g) vs (%g,%g,%g)",
			a.P50, a.P95, a.P99, b.P50, b.P95, b.P99)
	}
	if !reflect.DeepEqual(a.PerReplica, b.PerReplica) {
		t.Fatal("per-replica stats differ between identically-seeded runs")
	}
}

// TestServeParallelMatchesSerial proves replicas running on real
// goroutines under sim.RunParallel serve bit-identically to serial
// execution.
func TestServeParallelMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	par := run(t, ds, 4, baseOpts())

	prev := sim.SetParallel(false)
	defer sim.SetParallel(prev)
	ser := run(t, ds, 4, baseOpts())

	if !reflect.DeepEqual(par.Trace, ser.Trace) {
		t.Fatal("parallel trace differs from serial trace")
	}
	if !reflect.DeepEqual(par.PerReplica, ser.PerReplica) {
		t.Fatal("parallel per-replica stats differ from serial")
	}
	if par.P99 != ser.P99 || par.Throughput != ser.Throughput {
		t.Fatalf("parallel summary differs: p99 %g vs %g, throughput %g vs %g",
			par.P99, ser.P99, par.Throughput, ser.Throughput)
	}
}

// TestBatchingBeatsBatchOne pins the serving benchmark's claim: at a rate
// that saturates unbatched replicas, dynamic batching serves more
// requests per second at equal or better p99.
func TestBatchingBeatsBatchOne(t *testing.T) {
	ds := testDataset(t)
	opts := baseOpts()
	opts.Rate = 80000 // ~2x the two replicas' unbatched capacity
	opts.Deadline = opts.SLO
	opts.QueueCap = 128 // same absolute queue bound for both modes

	batched := run(t, ds, 2, opts)

	opts1 := opts
	opts1.MaxBatch = 1
	single := run(t, ds, 2, opts1)

	if batched.Throughput <= single.Throughput {
		t.Fatalf("batched throughput %.1f rps not above batch=1 %.1f rps",
			batched.Throughput, single.Throughput)
	}
	if single.Served > 0 && batched.P99 > single.P99 {
		t.Fatalf("batched p99 %.4fs worse than batch=1 %.4fs", batched.P99, single.P99)
	}
	if batched.MeanBatch <= 1.2 {
		t.Fatalf("dynamic batcher barely coalescing: mean batch %.2f", batched.MeanBatch)
	}
}

// TestAdmissionControl drives the server far past capacity with a tiny
// queue and checks that shedding and deadline timeouts engage.
func TestAdmissionControl(t *testing.T) {
	ds := testDataset(t)
	opts := baseOpts()
	opts.Rate = 200000
	opts.Requests = 400
	opts.MaxBatch = 4
	opts.QueueCap = 8
	opts.Deadline = 2e-3
	res := run(t, ds, 1, opts)
	if res.Shed == 0 {
		t.Error("overloaded bounded queue shed nothing")
	}
	if res.Served+res.Shed+res.TimedOut != res.Offered {
		t.Errorf("outcomes %d+%d+%d != offered %d", res.Served, res.Shed, res.TimedOut, res.Offered)
	}
	// Deadlines bound the queueing delay of anything that did run: no
	// served request can have waited longer than Deadline for launch.
	for _, q := range res.Trace {
		if q.Outcome == serve.OutcomeServed && q.Start-q.Arrival > opts.Deadline+1e-12 {
			t.Fatalf("request %d launched %.6fs after arrival, deadline %.6fs",
				q.ID, q.Start-q.Arrival, opts.Deadline)
		}
	}
}

// TestDeadlineTimeouts uses a deadline shorter than the batcher's delay so
// delayed requests provably expire.
func TestDeadlineTimeouts(t *testing.T) {
	ds := testDataset(t)
	opts := baseOpts()
	opts.Rate = 200000
	opts.Requests = 300
	opts.MaxBatch = 2
	opts.QueueCap = 1000 // no shedding: timeouts must do the bounding
	opts.Deadline = 0.5e-3
	res := run(t, ds, 1, opts)
	if res.TimedOut == 0 {
		t.Error("expected deadline timeouts under overload with an unbounded queue")
	}
	if res.Shed != 0 {
		t.Errorf("queue cap %d should not shed, got %d", opts.QueueCap, res.Shed)
	}
}

func TestRoutingPolicies(t *testing.T) {
	ds := testDataset(t)

	t.Run("round-robin", func(t *testing.T) {
		opts := baseOpts()
		opts.Policy = serve.PolicyRoundRobin
		res := run(t, ds, 4, opts)
		for i, q := range res.Trace {
			if q.Replica != i%4 {
				t.Fatalf("request %d routed to %d, want %d", i, q.Replica, i%4)
			}
		}
	})

	t.Run("owner", func(t *testing.T) {
		opts := baseOpts()
		opts.Policy = serve.PolicyOwner
		_, s := newServer(t, ds, 4, opts)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		pg := s.Store.PG
		for _, q := range res.Trace {
			if q.Replica != pg.Owner[q.Node].Rank() {
				t.Fatalf("request %d for node %d routed to %d, owner is %d",
					q.ID, q.Node, q.Replica, pg.Owner[q.Node].Rank())
			}
		}
	})

	t.Run("cache-aware", func(t *testing.T) {
		opts := baseOpts()
		opts.Policy = serve.PolicyCacheAware
		opts.CacheRows = 100
		opts.Skew = 1.3 // popular nodes are the cached ones
		_, s := newServer(t, ds, 4, opts)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Hot requests spread across replicas; cold ones go to owners.
		pg := s.Store.PG
		offOwner := 0
		for _, q := range res.Trace {
			if q.Replica != pg.Owner[q.Node].Rank() {
				offOwner++
			}
		}
		if offOwner == 0 {
			t.Error("cache-aware routing never spread a hot node off its owner")
		}
		// Cache-aware placement keeps gathers local: every replica's seed
		// rows are cached or owner-local, so hit rates should be high.
		for i, c := range s.Caches() {
			if c == nil {
				t.Fatalf("replica %d has no cache", i)
			}
		}
	})
}

// TestCoalescing pins request coalescing: duplicate seed nodes inside one
// batch run once but answer every requester.
func TestCoalescing(t *testing.T) {
	ds := testDataset(t)
	opts := baseOpts()
	opts.Skew = 1.8 // heavy duplication of the hottest nodes
	opts.Requests = 400
	res := run(t, ds, 1, opts)
	var targets int
	for _, st := range res.PerReplica {
		targets += st.Targets
	}
	if targets >= res.Served {
		t.Fatalf("no coalescing: %d unique targets for %d served requests", targets, res.Served)
	}
	for _, q := range res.Trace {
		if q.Outcome == serve.OutcomeServed && q.Class < 0 {
			t.Fatalf("request %d served without a prediction", q.ID)
		}
	}
}

// TestOverlap verifies the dual-stream pipeline actually overlaps: under
// sustained load the copy stream accumulates busy time concurrent with
// compute, and the makespan is shorter than the serialized sum of the two.
func TestOverlap(t *testing.T) {
	ds := testDataset(t)
	opts := baseOpts()
	opts.Rate = 1e6 // saturate so batches queue back-to-back
	opts.Requests = 300
	opts.QueueCap = 1000
	m, s := newServer(t, ds, 1, opts)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerReplica[0]
	if st.CopyBusySeconds <= 0 || st.BusySeconds <= 0 {
		t.Fatalf("expected busy time on both streams: compute %g copy %g",
			st.BusySeconds, st.CopyBusySeconds)
	}
	span := m.MaxTime()
	serialized := st.BusySeconds + st.CopyBusySeconds
	if span >= serialized {
		t.Fatalf("no overlap: makespan %.6f >= serialized busy %.6f", span, serialized)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []serve.Options{
		{Rate: -1},
		{Requests: -5},
		{MaxBatch: -1},
		{MaxDelay: -1},
		{Deadline: -1},
		{QueueCap: -1},
		{CacheRows: -5},
		{Skew: 0.5},
		{Policy: "nope"},
		{Fanouts: []int{-3, 2}},
		{Fanouts: []int{2, 0}},
	}
	for i, o := range bad {
		if err := o.Normalize().Validate(); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, o)
		}
	}
	if err := (serve.Options{}).Normalize().Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

// TestNewRefusesNegativePageRows: a paged deployment given a negative page
// size is refused by the feature store, not run on the default pages.
func TestNewRefusesNegativePageRows(t *testing.T) {
	ds := testDataset(t)
	opts := baseOpts()
	opts.Store.PagedFeatures = true
	opts.Store.Feat.PageRows = -7
	model := gnn.NewSAGE(gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: 16, Classes: ds.Spec.NumClasses,
		Layers: len(opts.Normalize().Fanouts), Backend: spops.BackendNative, Seed: 7,
	})
	_, err := serve.New(sim.NewMachine(sim.DGXA100(1)), 0, ds, model, opts)
	if err == nil || !strings.Contains(err.Error(), "PageRows") {
		t.Errorf("serve.New with PageRows -7: error %v, want one naming PageRows", err)
	}
}

// TestServeRunAllocsIndependentOfRequests pins the serving hot path's
// allocation contract: once warm, a Run allocates per stream — the trace,
// the routed streams, the result — and nothing per request or per batch.
// The forward records no tape (the replicas reset it for no-grad), the routed
// streams and the latency list are sized before they are filled, and the
// percentiles come from one in-place sort. So 8000 requests allocate no
// more than 2000 do (one object of slack); a list that grew by appending
// would add an allocation per doubling.
func TestServeRunAllocsIndependentOfRequests(t *testing.T) {
	prev := sim.SetParallel(false)
	defer sim.SetParallel(prev)
	ds := testDataset(t)
	m, s := newServer(t, ds, 2, baseOpts())
	runN := func(n int) float64 {
		s.Opts.Requests = n
		return testing.AllocsPerRun(3, func() {
			m.Reset()
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Warm every pool past the shapes the measured streams reach: the
	// sampler's stream runs on across Runs, so a new largest batch still
	// grows a buffer now and then.
	runN(16000)
	small, large := runN(2000), runN(8000)
	t.Logf("allocations per Run: %.0f at 2000 requests, %.0f at 8000", small, large)
	if large > small+1 {
		t.Errorf("a Run of 8000 requests allocates %.0f times, of 2000 %.0f: the count grows with the stream", large, small)
	}
}

func TestPercentileMath(t *testing.T) {
	// Exercised through a run with a known tiny trace: one replica, huge
	// MaxDelay forces full batches, so latencies are deterministic and the
	// percentile ordering plus SLO accounting can be cross-checked by
	// recomputation.
	ds := testDataset(t)
	opts := baseOpts()
	opts.Requests = 64
	res := run(t, ds, 1, opts)
	var lat []float64
	within := 0
	for _, q := range res.Trace {
		if q.Outcome == serve.OutcomeServed {
			lat = append(lat, q.Latency())
			if q.Latency() <= res.SLO {
				within++
			}
		}
	}
	if len(lat) != res.Served {
		t.Fatalf("trace has %d served, result says %d", len(lat), res.Served)
	}
	if got := float64(within) / float64(res.Served); math.Abs(got-res.SLOAttainment) > 1e-12 {
		t.Fatalf("SLO attainment %g, recomputed %g", res.SLOAttainment, got)
	}
	mean := 0.0
	for _, l := range lat {
		mean += l
	}
	mean /= float64(len(lat))
	if math.Abs(mean-res.MeanLatency) > 1e-9 {
		t.Fatalf("mean latency %g, recomputed %g", res.MeanLatency, mean)
	}
}
