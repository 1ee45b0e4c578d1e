package serve

import (
	"math/rand"
	"testing"

	"wholegraph/internal/ann"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
	"wholegraph/internal/wholemem"
)

// retrievalSetup builds a small clustered index over a fresh machine and a
// retrieval server on it.
func retrievalSetup(t *testing.T, opts Options) (*sim.Machine, *Server) {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	emb := tensor.New(1200, 12)
	for i := range emb.V {
		emb.V[i] = float32(rng.NormFloat64())
	}
	ix, err := ann.Build(comm, emb, ann.Options{M: 8, EfConstruction: 48})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewRetrieval(ix, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	return m, srv
}

func baseRetrievalOpts() Options {
	return Options{
		Rate:     200000,
		Requests: 600,
		MaxBatch: 8,
		MaxDelay: 0.2e-3,
		SLO:      1e-3,
		Skew:     1.3,
		TopK:     10,
		EfSearch: 64,
		Seed:     3,
	}
}

func TestRetrievalServing(t *testing.T) {
	_, srv := retrievalSetup(t, baseRetrievalOpts())
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.Served+res.Shed+res.TimedOut != res.Offered {
		t.Fatalf("outcome counts %d+%d+%d != offered %d", res.Served, res.Shed, res.TimedOut, res.Offered)
	}
	if res.Recall <= 0.5 || res.Recall > 1 {
		t.Fatalf("mean recall@%d = %.3f, expected a sane (0.5, 1] value at ef=64", res.TopK, res.Recall)
	}
	if res.TopK != 10 || res.EfSearch != 64 {
		t.Fatalf("result echoes topk=%d ef=%d", res.TopK, res.EfSearch)
	}
	if res.P99 <= 0 {
		t.Fatal("no p99 latency reported")
	}
	if res.MeanBatch <= 1 {
		t.Fatalf("dynamic batcher never coalesced (mean batch %.2f)", res.MeanBatch)
	}
	for _, q := range res.Trace {
		if q.Outcome == OutcomeServed && srv.index.RankOfRow(q.Node) != q.Replica {
			// Default policy degrades to owner routing for retrieval.
			t.Fatalf("request %d for node %d served by replica %d, owner is %d",
				q.ID, q.Node, q.Replica, srv.index.RankOfRow(q.Node))
		}
	}
}

// TestRetrievalDeterministic pins the acceptance contract: the retrieval
// trace — every field of every request, including recall — is
// bit-identical whether the replicas run serially or under
// sim.RunParallel.
func TestRetrievalDeterministic(t *testing.T) {
	prev := sim.SetParallel(false)
	_, srvSer := retrievalSetup(t, baseRetrievalOpts())
	resSer, err := srvSer.Run()
	if err != nil {
		t.Fatal(err)
	}
	sim.SetParallel(true)
	_, srvPar := retrievalSetup(t, baseRetrievalOpts())
	resPar, err := srvPar.Run()
	sim.SetParallel(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(resSer.Trace) != len(resPar.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(resSer.Trace), len(resPar.Trace))
	}
	for i := range resSer.Trace {
		a, b := *resSer.Trace[i], *resPar.Trace[i]
		if a != b {
			t.Fatalf("request %d differs:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
	if resSer.Recall != resPar.Recall || resSer.P99 != resPar.P99 || resSer.Throughput != resPar.Throughput {
		t.Fatalf("aggregates differ: recall %v/%v p99 %v/%v thr %v/%v",
			resSer.Recall, resPar.Recall, resSer.P99, resPar.P99, resSer.Throughput, resPar.Throughput)
	}
}

// TestRetrievalBeamWidthTradesRecall pins the knob the ablation sweeps: a
// wider beam may only raise recall, a width-1 beam should visibly miss.
func TestRetrievalBeamWidthTradesRecall(t *testing.T) {
	recallAt := func(ef int) float64 {
		opts := baseRetrievalOpts()
		opts.EfSearch = ef
		_, srv := retrievalSetup(t, opts)
		res, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Recall
	}
	narrow, wide := recallAt(10), recallAt(128)
	if wide < narrow {
		t.Fatalf("recall fell as the beam widened: ef=10 %.3f, ef=128 %.3f", narrow, wide)
	}
	if wide < 0.85 {
		t.Fatalf("recall@10 at ef=128 = %.3f, expected near-exact on 1200 vectors", wide)
	}
}
