package main

import (
	"math"

	"wholegraph/internal/dataset"
	"wholegraph/internal/train"
)

// runSeconds is BENCHMARK.json's run_seconds: the op counts below are sized
// so one run's timed section takes about this long on the 2-core box the
// benchmark was defined on. --seconds scales the op counts, never the
// shapes, so every virtual number is a pure function of (seed, seconds).
const runSeconds = 12

// Workload names are normative: later issues refer to them.
const (
	wInram = "train_inram"
	wSched = "train_sched_2node"
	wOOC   = "train_ooc"
	wServe = "serve_infer"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wInram, "paper design, plain: eager GraphSAGE on one DGX node; model compute dominates and storage is cheap, the baseline every step-path refactor must keep"},
	{wSched, "fully optimised Table V cell: GAT on 2 nodes with capture/replay, scheduler, pipelined loader and bucketed AllReduce over InfiniBand"},
	{wOOC, "out-of-core papers100M: paged feature and topology stores at quarter-size caches, so page faults and generator fills do nearly all the work"},
	{wServe, "open-loop Zipf-skewed online inference behind the dynamic batcher with a hot-row cache: the forward-only read path under queueing"},
}

// metricDef describes one reported number. Bound is the cross-seed
// regression bound BENCHMARK.json carries (end-to-end metrics only): one
// per metric for all workloads, so it is sized to the workload that varies
// most between seeds (train_ooc) and is loose on the others. Repeat is the
// same-seed tolerance of --selfcheck (two sets of one commit) and --against
// (this commit's set against another's): 0 means bit-identical, 2 % for
// heap counters, and 0.25 for wall time and RSS: runs of one binary on the
// shared 2-core box the benchmark was defined on differed by up to 0.21
// while the box was disturbed (README.md).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Repeat float64 `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees, in both clocks. Every
// workload reports every metric; README.md says what each means on the
// training and on the serving workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25, 0.25},
	{"host_ms_per_op", "ms", lower, 0.25, 0.25},
	{"host_allocs_per_op", "count", lower, 0.15, 0.02},
	{"host_kb_per_op", "KiB", lower, 0.15, 0.02},
	{"virt_epoch_ms", "ms", lower, 0.12, 0},
	{"virt_p50_ms", "ms", lower, 0.12, 0},
	{"virt_p99_ms", "ms", lower, 0.12, 0},
	{"virt_max_rate_krps", "k/s", higher, 0.12, 0},
	{"virt_goodput_krps", "k/s", higher, 0.12, 0},
}

// perLayer lists the traced run's numbers, <module>.<metric>. A layer a
// workload does not exercise reports 0. They carry no bound.
var perLayer = []metricDef{
	{Name: "dataset.gen_host_s", Unit: "s", Better: lower},
	{Name: "dataset.nodes", Unit: "count", Better: higher},
	{Name: "dataset.edges_stored", Unit: "count", Better: higher},

	{Name: "core.store_host_s", Unit: "s", Better: lower},
	{Name: "core.store_virt_ms", Unit: "ms", Better: lower},
	{Name: "core.build_host_ms", Unit: "ms", Better: lower},
	{Name: "core.build_virt_ms", Unit: "ms", Better: lower},
	{Name: "core.input_nodes", Unit: "count", Better: lower},
	{Name: "core.prefetch_pages", Unit: "count", Better: higher},
	{Name: "core.wait_batch_virt_us", Unit: "us", Better: lower},

	{Name: "sampling.host_us", Unit: "us", Better: lower},
	{Name: "sampling.virt_us", Unit: "us", Better: lower},
	{Name: "sampling.edges", Unit: "count", Better: lower},

	{Name: "unique.host_us", Unit: "us", Better: lower},
	{Name: "unique.virt_us", Unit: "us", Better: lower},
	{Name: "unique.dedup_ratio", Unit: "ratio", Better: lower},

	{Name: "gather.host_us", Unit: "us", Better: lower},
	{Name: "gather.virt_us", Unit: "us", Better: lower},
	{Name: "gather.rows", Unit: "count", Better: lower},
	{Name: "gather.remote_byte_frac", Unit: "ratio", Better: lower},

	{Name: "cache.hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.host_us", Unit: "us", Better: lower},
	{Name: "cache.fill_virt_ms", Unit: "ms", Better: lower},

	{Name: "featstore.hit_rate", Unit: "ratio", Better: higher},
	{Name: "featstore.misses", Unit: "count", Better: lower},
	{Name: "featstore.evictions", Unit: "count", Better: lower},
	{Name: "featstore.prefetch_hits", Unit: "count", Better: higher},
	{Name: "featstore.admission_rejects", Unit: "count", Better: lower},
	{Name: "featstore.host_ms", Unit: "ms", Better: lower},
	{Name: "featstore.virt_ms", Unit: "ms", Better: lower},
	{Name: "featstore.resident_mb", Unit: "MiB", Better: lower},

	{Name: "topostore.hit_rate", Unit: "ratio", Better: higher},
	{Name: "topostore.misses", Unit: "count", Better: lower},
	{Name: "topostore.evictions", Unit: "count", Better: lower},
	{Name: "topostore.prefetch_hits", Unit: "count", Better: higher},
	{Name: "topostore.host_ms", Unit: "ms", Better: lower},
	{Name: "topostore.virt_ms", Unit: "ms", Better: lower},
	{Name: "topostore.resident_mb", Unit: "MiB", Better: lower},

	{Name: "gnn.forward_host_ms", Unit: "ms", Better: lower},
	{Name: "gnn.forward_virt_us", Unit: "us", Better: lower},
	{Name: "spops.spmm_host_us_per_call", Unit: "us", Better: lower},
	{Name: "spops.spmm_virt_us_per_call", Unit: "us", Better: lower},
	{Name: "tensor.matmul_host_us_per_call", Unit: "us", Better: lower},
	{Name: "tensor.matmul_gflops_host", Unit: "GFLOP/s", Better: higher},
	{Name: "tensor.loss_host_us", Unit: "us", Better: lower},

	{Name: "autograd.backward_host_ms", Unit: "ms", Better: lower},
	{Name: "autograd.backward_virt_us", Unit: "us", Better: lower},
	{Name: "nn.optimizer_host_us", Unit: "us", Better: lower},
	{Name: "nn.optimizer_virt_us", Unit: "us", Better: lower},

	{Name: "train.step_host_ms", Unit: "ms", Better: lower},
	{Name: "train.step_virt_us", Unit: "us", Better: lower},
	{Name: "train.crit_virt_us", Unit: "us", Better: lower},
	{Name: "train.overlap_hidden_frac", Unit: "ratio", Better: higher},
	{Name: "train.graph_captures", Unit: "count", Better: lower},
	{Name: "train.graph_replays", Unit: "count", Better: higher},
	{Name: "train.graph_invalidations", Unit: "count", Better: lower},
	{Name: "train.graph_fallbacks", Unit: "count", Better: lower},
	{Name: "train.graph_scheduled", Unit: "count", Better: higher},
	{Name: "train.replay_ratio", Unit: "ratio", Better: higher},
	{Name: "train.loss_final", Unit: "nats", Better: lower},
	{Name: "train.host_epoch_p95_ms", Unit: "ms", Better: lower},
	{Name: "train.closure_err", Unit: "ratio", Better: lower},

	{Name: "sched.scheduled_frac", Unit: "ratio", Better: higher},
	{Name: "sched.copy_busy_frac", Unit: "ratio", Better: higher},

	{Name: "sim.kernels", Unit: "count", Better: lower},
	{Name: "sim.flops", Unit: "count", Better: lower},
	{Name: "sim.graph_launches", Unit: "count", Better: higher},
	{Name: "sim.graph_kernels", Unit: "count", Better: higher},
	{Name: "sim.compute_busy_frac", Unit: "ratio", Better: higher},
	{Name: "sim.comm_virt_us", Unit: "us", Better: lower},
	{Name: "sim.nvlink_tx_mb", Unit: "MB", Better: lower},
	{Name: "sim.ib_tx_mb", Unit: "MB", Better: lower},
	{Name: "sim.local_mb", Unit: "MB", Better: lower},
	{Name: "sim.remote_mb", Unit: "MB", Better: lower},
	{Name: "sim.host_mb", Unit: "MB", Better: lower},
	{Name: "sim.allreduce_host_us_per_call", Unit: "us", Better: lower},
	{Name: "sim.allreduce_virt_us_per_call", Unit: "us", Better: lower},

	{Name: "nccl.allreduce_mean_host_us_per_call", Unit: "us", Better: lower},

	{Name: "serve.run_host_us_per_req", Unit: "us", Better: lower},
	{Name: "serve.mean_batch", Unit: "count", Better: higher},
	{Name: "serve.batches", Unit: "count", Better: lower},
	{Name: "serve.shed_frac", Unit: "ratio", Better: lower},
	{Name: "serve.timeout_frac", Unit: "ratio", Better: lower},
	{Name: "serve.slo_attainment", Unit: "ratio", Better: higher},
	{Name: "serve.replica_compute_busy_frac", Unit: "ratio", Better: higher},
	{Name: "serve.replica_copy_busy_frac", Unit: "ratio", Better: higher},
	{Name: "serve.p9999_ms", Unit: "ms", Better: lower},
	{Name: "serve.p99_ms_r_low", Unit: "ms", Better: lower},
	{Name: "serve.p99_ms_r_over", Unit: "ms", Better: lower},

	{Name: "trace_overhead_frac", Unit: "ratio", Better: lower},
}

// manifest is BENCHMARK.json: the contract the pipeline reads. It is
// generated from the tables above (--manifest) and bench_test.go fails when
// the committed file and the tables drift apart.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func currentManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// scaleOps scales a base op count by seconds/runSeconds, never below min.
func scaleOps(base int, seconds float64, min int) int {
	n := int(math.Round(float64(base) * seconds / runSeconds))
	if n < min {
		n = min
	}
	return n
}

// trainSpec is one training workload: a dataset, a machine and a fixed
// train.Options. Shapes are those ISSUE 11 probed on the seed commit; the
// epoch counts are its counts cut uniformly to the 12 s timed section.
type trainSpec struct {
	name      string
	base      dataset.Spec
	scale     float64
	outOfCore bool
	nodes     int
	opts      train.Options
	warmup    int // untimed epochs that fill caches and capture step graphs
	epochs    int // timed epochs at runSeconds
}

var trainSpecs = map[string]trainSpec{
	wInram: {
		name: wInram, base: dataset.OgbnProducts, scale: 0.05, nodes: 1,
		opts: train.Options{
			Arch: "graphsage", Batch: 128, Fanouts: []int{10, 10}, Hidden: 64,
			Dropout: 0.5, RealWorkers: 1,
		},
		warmup: 5, epochs: 110,
	},
	wSched: {
		name: wSched, base: dataset.OgbnProducts, scale: 0.05, nodes: 2,
		opts: train.Options{
			Arch: "gat", Heads: 4, Batch: 128, Fanouts: []int{10, 10}, Hidden: 64,
			Dropout: 0.5, RealWorkers: 1,
			Schedule: true, Pipeline: true, OverlapGrads: true,
		},
		warmup: 4, epochs: 66,
	},
	wOOC: {
		name: wOOC, base: dataset.OgbnPapers100M, scale: 0.001, outOfCore: true, nodes: 1,
		opts: train.Options{
			Arch: "graphsage", Batch: 32, Fanouts: []int{10, 10}, Hidden: 32,
			RealWorkers:   1,
			PagedFeatures: true, PagedTopo: true,
			FeatPageRows: 16, FeatCacheMB: 14, TopoCacheMB: 5,
			PrefetchPages: 16, CachePolicy: "lru",
		},
		warmup: 2, epochs: 11,
	},
}

// serveSpec is the open-loop serving workload. Rates are requests per
// virtual second; the generator is a seeded Poisson process in virtual
// time, so it is never late (lateness is 0 by construction).
type serveSpec struct {
	scale     float64
	replicas  int
	hidden    int
	fanouts   []int
	maxBatch  int
	maxDelay  float64
	cacheRows int
	skew      float64
	slo       float64 // also the per-request deadline
	// Fixed-rate steps, then a bisection for the highest rate that meets
	// the SLO on p99 with at most maxFail failures.
	rLow, rKnee, rOver float64
	fixedRequests      int // per fixed-rate step at runSeconds
	bisectLo, bisectHi float64
	bisectSteps        int
	bisectRequests     int // per bisection step at runSeconds
	maxFail            float64
	warmRequests       int
}

var serveDef = serveSpec{
	scale: 0.05, replicas: 4, hidden: 64, fanouts: []int{5, 5},
	maxBatch: 16, maxDelay: 0.5e-3, cacheRows: 2000, skew: 1.3, slo: 1e-3,
	rLow: 0.5e6, rKnee: 2.0e6, rOver: 3.0e6, fixedRequests: 140_000,
	bisectLo: 1e6, bisectHi: 4e6, bisectSteps: 6, bisectRequests: 46_000,
	maxFail: 1e-3, warmRequests: 2000,
}
