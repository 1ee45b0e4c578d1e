// Package serve implements online GNN inference serving over the
// distributed shared-memory store — the request-driven counterpart of the
// offline training pipeline in internal/train.
//
// The paper's argument is that irregular feature gathering dominates GNN
// workloads (Figure 8), and an online serving layer exercises exactly that
// cost under open-loop load: each request asks for the model's prediction
// on one seed node, which requires sampling its multi-hop neighborhood,
// deduplicating it, gathering the input features through peer access, and
// running the model forward. The subsystem simulates, in virtual time:
//
//   - a seeded open-loop request generator (Poisson arrivals, optionally
//     Zipf-skewed toward high-degree nodes),
//   - static cache-aware routing across the replicas (one per GPU of the
//     store's node),
//   - a per-replica dynamic batcher that coalesces queued requests until
//     MaxBatch requests are waiting or the oldest has waited MaxDelay,
//   - admission control: a bounded per-replica queue that sheds arrivals
//     when full, plus per-request deadlines that drop requests whose
//     deadline passed before their batch launched,
//   - batch execution that reuses the training loader's sample/dedup/
//     gather chain and the model forward, with each batch's build running
//     on the device's copy stream so it overlaps the previous batch's
//     forward on the compute stream (the PR-3 dual-stream model).
//
// Everything is deterministic: the same seed and options produce a
// bit-identical request trace and latency percentiles, whether the
// replicas run serially or on real goroutines under sim.RunParallel.
package serve

import (
	"fmt"
	"math"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/blockcache"
	"wholegraph/internal/cache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Policy selects how arriving requests are routed to replicas. All
// policies are static (computable from the request alone plus a running
// counter), which keeps the per-replica serving loops independent and
// lets them run under sim.RunParallel.
type Policy string

const (
	// PolicyCacheAware routes hot nodes — whose feature rows every
	// non-owner replica caches — round-robin across all replicas, and
	// cold nodes to the rank that owns their feature shard. With no cache
	// configured it degrades to PolicyOwner.
	PolicyCacheAware Policy = "cache"
	// PolicyOwner routes every request to the rank owning the seed
	// node's feature row (the hash partition balances load in
	// expectation and the seed row gather is always local).
	PolicyOwner Policy = "owner"
	// PolicyRoundRobin ignores locality and spreads requests evenly.
	PolicyRoundRobin Policy = "rr"
)

// Options configures a serving run. Zero values take defaults via
// Normalize.
type Options struct {
	// Rate is the mean Poisson arrival rate in requests per virtual
	// second (default 2000).
	Rate float64
	// Requests is the open-loop request count (default 2000).
	Requests int
	// MaxBatch caps how many requests one batch coalesces (default 16;
	// 1 disables batching — every request runs alone).
	MaxBatch int
	// MaxDelay is the longest a queued request waits for companions
	// before its batch launches anyway, in virtual seconds (default 1ms).
	MaxDelay float64
	// SLO is the latency target reported against, in virtual seconds
	// (default 20ms).
	SLO float64
	// Deadline drops requests whose batch has not launched within this
	// many virtual seconds of arrival (0 = no timeouts).
	Deadline float64
	// QueueCap bounds each replica's waiting queue; arrivals beyond it
	// are shed (default 8*MaxBatch).
	QueueCap int
	// CacheRows, when positive, fronts each replica's feature gathers
	// with a degree-ordered hot-node cache of that many rows.
	CacheRows int
	// Fanouts are the per-layer sampling fanouts (default 10,10).
	Fanouts []int
	// Skew, when > 1, draws seed nodes from a Zipf distribution over the
	// degree ranking (rank 0 = highest degree), modelling the popularity
	// skew of real traffic; 0 draws them uniformly.
	Skew float64
	// Policy is the routing policy (default PolicyCacheAware).
	Policy Policy
	// Seed fixes the arrival process and seed-node draw.
	Seed int64
	// Store configures the deployment's graph store; its zero value is the
	// resident wholemem store. Store.PagedFeatures serves node features from
	// the paged feature store (internal/featstore) instead. Callers with
	// user spellings of the storage knobs build it with
	// train.Options.StoreOptions.
	Store core.StoreOptions
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Rate == 0 {
		o.Rate = 2000
	}
	if o.Requests == 0 {
		o.Requests = 2000
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 1e-3
	}
	if o.SLO == 0 {
		o.SLO = 20e-3
	}
	if o.QueueCap == 0 {
		o.QueueCap = 8 * o.MaxBatch
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{10, 10}
	}
	if o.Policy == "" {
		o.Policy = PolicyCacheAware
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate rejects unusable option combinations. Every rate, duration and
// skew must be finite: a NaN rate stalls the batcher, and a NaN delay runs
// the virtual clock backwards. Every fanout must be at least 1, as
// train.Options.Check asks.
func (o Options) Validate() error {
	switch {
	case !finite(o.Rate) || o.Rate <= 0:
		return fmt.Errorf("serve: Rate must be positive and finite, got %g", o.Rate)
	case o.Requests <= 0:
		return fmt.Errorf("serve: Requests must be positive, got %d", o.Requests)
	case o.MaxBatch < 1:
		return fmt.Errorf("serve: MaxBatch must be >= 1, got %d", o.MaxBatch)
	case !finite(o.MaxDelay) || o.MaxDelay < 0:
		return fmt.Errorf("serve: MaxDelay must be finite and >= 0, got %g", o.MaxDelay)
	case !finite(o.SLO) || o.SLO < 0:
		return fmt.Errorf("serve: SLO must be finite and >= 0, got %g", o.SLO)
	case !finite(o.Deadline) || o.Deadline < 0:
		return fmt.Errorf("serve: Deadline must be finite and >= 0, got %g", o.Deadline)
	case o.QueueCap < 1:
		return fmt.Errorf("serve: QueueCap must be >= 1, got %d", o.QueueCap)
	case o.CacheRows < 0:
		return fmt.Errorf("serve: CacheRows must be >= 0, got %d", o.CacheRows)
	case !finite(o.Skew) || (o.Skew != 0 && o.Skew <= 1):
		return fmt.Errorf("serve: Skew must be finite and > 1 (or 0 for uniform), got %g", o.Skew)
	}
	for hop, fan := range o.Fanouts {
		if fan < 1 {
			return fmt.Errorf("serve: Fanouts[%d] must be >= 1, got %d", hop, fan)
		}
	}
	switch o.Policy {
	case PolicyCacheAware, PolicyOwner, PolicyRoundRobin:
	default:
		return fmt.Errorf("serve: unknown routing policy %q", o.Policy)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Server serves node-inference requests from the replicas of one store.
// Each replica is one GPU of the store's node: it runs its own model copy,
// loader and (optionally) hot-node feature cache, and gathers input
// features from every rank's shard through peer access.
type Server struct {
	Opts  Options
	Store *core.Store
	Model gnn.Model

	replicas []*replica
	// byDegree maps a popularity rank (0 = hottest) to a node ID: the
	// store's degree ranking, shared with the replica caches. Set when
	// Opts.Skew draws seed nodes by popularity or the cache-aware router
	// needs hotness. rankOf is its lazily-built inverse, indexed by node.
	byDegree []int64
	rankOf   []uint32
	rr       int // round-robin cursor shared by the routing policies
}

// New builds a serving deployment: the dataset is partitioned over the
// GPUs of machine node `node` (one serving replica per GPU), and the given
// trained model is replicated onto each. Construction charges the store
// setup and cache fill; callers measuring steady-state serving should
// m.Reset() afterwards, as the benchmarks do.
func New(m *sim.Machine, node int, ds *dataset.Dataset, model gnn.Model, opts Options) (*Server, error) {
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	store, err := core.NewStoreOpts(m, node, ds, opts.Store)
	if err != nil {
		return nil, err
	}
	if store.PG.Features() == nil {
		return nil, fmt.Errorf("serve: store has no node features")
	}
	cfg := model.Config()
	if cfg.InDim != store.PG.Dim {
		return nil, fmt.Errorf("serve: model input dim %d != feature dim %d", cfg.InDim, store.PG.Dim)
	}
	if cfg.Classes != ds.Spec.NumClasses {
		return nil, fmt.Errorf("serve: model classes %d != dataset classes %d", cfg.Classes, ds.Spec.NumClasses)
	}
	if len(opts.Fanouts) != cfg.Layers {
		return nil, fmt.Errorf("serve: %d fanouts for a %d-layer model", len(opts.Fanouts), cfg.Layers)
	}
	s := &Server{Opts: opts, Store: store, Model: model}
	devs := store.Comm.Devs
	for r, dev := range devs {
		rep := &replica{id: r, dev: dev, srv: s}
		if r == 0 {
			rep.model = model
		} else {
			rep.model = gnn.New(model.Name(), cfg)
		}
		rep.loader = core.NewLoader(store, dev, opts.Fanouts, opts.Seed+int64(r))
		if opts.CacheRows > 0 {
			fc, err := cache.NewDegreeCache(store.PG, dev, opts.CacheRows)
			if err != nil {
				return nil, fmt.Errorf("serve: building replica %d cache: %w", r, err)
			}
			rep.cache = fc
			rep.loader.WithCache(fc)
		}
		rep.tape = autograd.NewTapeArena(tensor.NewArena())
		s.replicas = append(s.replicas, rep)
	}
	if opts.Skew > 1 || (opts.Policy == PolicyCacheAware && opts.CacheRows > 0) {
		s.byDegree = store.PG.DegreeOrder()
	}
	return s, nil
}

// Replicas returns the number of serving replicas (GPUs of the node).
func (s *Server) Replicas() int { return len(s.replicas) }

// FeatStoreStats snapshots the paged feature store's BlockCache counters;
// the zero Stats when Options.Store.PagedFeatures is off.
func (s *Server) FeatStoreStats() blockcache.Stats {
	feat, _ := s.Store.PagedStats()
	return feat
}

// Caches returns the per-replica feature caches (nil entries when
// Options.CacheRows is 0).
func (s *Server) Caches() []*cache.FeatureCache {
	out := make([]*cache.FeatureCache, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.cache
	}
	return out
}

// Run generates the request stream, routes it, serves it, and returns the
// aggregated result. Every replica's weights are copied from s.Model at
// the start. Each call continues the machine's
// virtual clocks from wherever they are; benchmarks Reset between runs. It
// fails when Rate is so low that arrival times overflow to +Inf.
func (s *Server) Run() (*Result, error) {
	for _, rep := range s.replicas[1:] {
		rep.model.Params().CopyFrom(s.Model.Params())
	}
	trace := s.generate()
	if n := len(trace); n > 0 && math.IsInf(trace[n-1].Arrival, 1) {
		// The batcher would spin forever on an arrival at +Inf.
		return nil, fmt.Errorf("serve: Rate %g is too low: arrival times overflow", s.Opts.Rate)
	}
	perReplica := s.route(trace)

	sim.RunParallel(len(s.replicas), func(r int) {
		s.replicas[r].serve(perReplica[r])
	})

	res := s.aggregate(trace)
	return res, nil
}

// generate draws the open-loop arrival process: exponential inter-arrival
// gaps at Opts.Rate, seed nodes uniform or Zipf-skewed by popularity, which
// follows the degree ranking (hot = high degree).
func (s *Server) generate() []*Request {
	o := s.Opts
	n := s.Store.PG.N
	rng := rand.New(rand.NewSource(o.Seed*7919 + 13))
	var zipf *rand.Zipf
	if o.Skew > 1 {
		zipf = rand.NewZipf(rng, o.Skew, 1, uint64(n-1))
	}
	// One slab for the whole stream; the trace points into it.
	slab := make([]Request, o.Requests)
	reqs := make([]*Request, o.Requests)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / o.Rate
		var node int64
		if zipf != nil {
			node = s.byDegree[int64(zipf.Uint64())]
		} else {
			node = rng.Int63n(n)
		}
		slab[i] = Request{ID: i, Node: node, Arrival: t}
		reqs[i] = &slab[i]
	}
	return reqs
}

// route assigns every request a replica under the configured policy and
// returns the per-replica streams (still in arrival order), each sized by a
// first counting pass.
func (s *Server) route(reqs []*Request) [][]*Request {
	counts := make([]int, len(s.replicas))
	for _, q := range reqs {
		q.Replica = s.routeOne(q)
		counts[q.Replica]++
	}
	out := make([][]*Request, len(s.replicas))
	for r, n := range counts {
		out[r] = make([]*Request, 0, n)
	}
	for _, q := range reqs {
		out[q.Replica] = append(out[q.Replica], q)
	}
	return out
}

// routeOne picks the replica for one request. Static by design: routing
// must not depend on queue state, so the replica streams are fixed before
// serving starts and the replicas can run concurrently.
func (s *Server) routeOne(q *Request) int {
	n := len(s.replicas)
	switch s.Opts.Policy {
	case PolicyRoundRobin:
		r := s.rr % n
		s.rr++
		return r
	case PolicyOwner:
		return s.Store.PG.Owner[q.Node].Rank()
	default: // PolicyCacheAware
		// A row within the cache capacity of the degree ranking is local
		// on its owner and cached everywhere else, so any replica serves
		// it from local memory — spread those round-robin. Cold rows go
		// to their owner, whose shard holds them.
		if s.Opts.CacheRows > 0 && s.degreeRank(q.Node) < int64(s.Opts.CacheRows) {
			r := s.rr % n
			s.rr++
			return r
		}
		return s.Store.PG.Owner[q.Node].Rank()
	}
}

// degreeRank returns the node's position in the degree ranking (0 =
// highest degree), matching cache.NewDegreeCache's fill order.
func (s *Server) degreeRank(node int64) int64 {
	if s.rankOf == nil {
		s.rankOf = make([]uint32, len(s.byDegree))
		for i, v := range s.byDegree {
			s.rankOf[v] = uint32(i)
		}
	}
	return int64(s.rankOf[node])
}
