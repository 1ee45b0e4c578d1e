// Package train implements the WholeGraph training pipeline of §III: every
// GPU runs one data-parallel worker that samples on-GPU, deduplicates with
// AppendUnique, gathers features through distributed shared memory, trains
// its model replica, and synchronizes gradients with an AllReduce
// (hierarchical NVLink + InfiniBand for multi-node, §III-D).
//
// To keep host cost manageable, the simulation executes a configurable
// number of representative workers for real (default 1) and mirrors their
// measured per-iteration time onto the remaining devices; collectives are
// charged over the full machine. Epoch times and phase breakdowns are
// virtual seconds. Real workers execute on real goroutines between gradient
// synchronization points (sim.RunParallel): each worker owns its device,
// loader and model replica, and the loss/accuracy sums are reduced in
// worker order after the join, so results are bit-identical to serial
// execution regardless of sim.SetParallel.
package train

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"wholegraph/internal/autograd"
	"wholegraph/internal/blockcache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/featstore"
	"wholegraph/internal/gnn"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/topostore"
)

// Options configures a training run. Zero values take paper defaults via
// Normalize.
//
// This struct is the one definition of a training knob. The CLIs' flags are
// bound to its fields by BindModelFlags / BindExecFlags (flags.go), the bench
// harness carries one Options as the template of every trainer it builds
// (bench.Config.Train), `wgbench -json` marshals that template, and
// StoreOptions turns the storage spellings into a core.StoreOptions. To add a
// knob: one field here (with its JSON tag) and one row in flags.go —
// TestEveryOptionIsBoundOrListed fails until both exist.
type Options struct {
	Arch    string        `json:"arch,omitempty"` // "gcn", "graphsage", "gat"
	Batch   int           `json:"batch,omitempty"`
	Fanouts []int         `json:"fanouts,omitempty"`
	Hidden  int           `json:"hidden,omitempty"`
	Heads   int           `json:"heads,omitempty"`
	Dropout float32       `json:"dropout,omitempty"`
	LR      float64       `json:"lr,omitempty"`
	Backend spops.Backend `json:"backend,omitempty"`
	Seed    int64         `json:"seed,omitempty"`
	// RealWorkers is how many data-parallel workers execute for real per
	// node; the rest mirror their timing.
	RealWorkers int `json:"real_workers,omitempty"`
	// MaxItersPerEpoch caps the measured iterations per epoch (0 = full
	// epoch); the epoch time is extrapolated from the measured mean.
	MaxItersPerEpoch int `json:"max_iters_per_epoch,omitempty"`
	// Trace enables busy/idle interval recording on worker 0's device.
	Trace bool `json:"trace,omitempty"`
	// Pipeline overlaps batch extraction with model compute: each worker's
	// loader prefetches batch i+1 on its device's copy stream while
	// iteration i runs forward/backward on the compute stream (§IV,
	// Fig. 10). Model state, losses and gradients are bit-identical to the
	// sequential run; only virtual time improves. Ignored when a loader
	// does not implement PrefetchingLoader (the host-memory baselines).
	Pipeline bool `json:"pipeline"`
	// OverlapGrads overlaps gradient synchronization with the backward
	// pass: parameters are bucketed per layer (DDP-style) and each bucket's
	// hierarchical AllReduce is issued on the copy stream the moment
	// backward finalizes its gradients, so communication for one layer
	// hides under the backward compute of the next. Losses, gradients and
	// model state are bit-identical to the blocking path; only virtual time
	// improves. Composes with Pipeline.
	OverlapGrads bool `json:"overlap_grads"`
	// Schedule captures each worker's training step as a replayable graph
	// (CUDA-Graph style): the worker's first iteration records the op
	// sequence on a tape that is kept, and every later iteration replays it
	// inside one graph launch through the whole-step scheduler
	// (internal/sched, DESIGN.md §9 and §13), which list-schedules the
	// step's dependency DAG onto the compute and copy streams — never
	// slower than the serial order it falls back to. The graph reads every
	// batch through the worker's own input header, so one capture per
	// worker serves every batch. Losses, gradients and model state are
	// bit-identical to eager execution. Composes with Pipeline and
	// OverlapGrads. The host-memory baselines ignore it (baseline.New).
	Schedule bool `json:"schedule"`
	// PagedFeatures serves node features from the paged feature store
	// (internal/featstore) instead of the flat wholemem slab: rows are
	// read out of per-GPU LRU BlockCaches and page misses pay the
	// Unified-Memory fault cost on the copy stream. Losses are
	// bit-identical to the slab path. Required for out-of-core datasets
	// (dataset.GenerateOutOfCore), whose slab was never materialized.
	PagedFeatures bool `json:"paged_features"`
	// FeatEncoding names the page format: "", "raw" or "float32", the one
	// raw float32 format (featstore.ParseEncoding); no flag sets it. It
	// stays because the benchmark module (benchmark/train.go) reads it,
	// and goes with that module's next edit (ROADMAP items 9 and 21).
	FeatEncoding string `json:"feat_encoding"`
	// FeatPageRows is the paged store's rows-per-page (0 = 256).
	FeatPageRows int `json:"feat_page_rows"`
	// FeatCacheMB is each GPU's BlockCache budget in MiB (0 = 256).
	FeatCacheMB int `json:"feat_cache_mb"`
	// PagedTopo serves the CSR column array from the paged topology store
	// (internal/topostore) instead of a resident wholemem array: sampling
	// reads neighbors through a page-aware accessor whose misses pay the
	// Unified-Memory fault cost on the copy stream. Decoded neighbors are
	// bit-identical to the in-memory CSR. Required for out-of-core
	// datasets, whose edge list was never materialized. Incompatible with
	// Weighted datasets (edge weights need a materialized column).
	PagedTopo bool `json:"paged_topo"`
	// TopoPageEdges is the paged topology store's column entries per page
	// (0 = 4096).
	TopoPageEdges int `json:"topo_page_edges"`
	// TopoCacheMB is each GPU's topology BlockCache budget in MiB
	// (0 = 256).
	TopoCacheMB int `json:"topo_cache_mb"`
	// PrefetchPages, when positive, has each worker predict the paged
	// pages (topology and features) an upcoming batch will touch and fault
	// up to that many of each on the copy stream ahead of compute.
	// Prediction reads only host-visible metadata; batch contents, losses
	// and model state are bit-identical — hit rates and virtual time are
	// the only effect. Under Options.Pipeline the prediction targets the
	// batch one past the in-flight prefetch (whose full build already
	// faults its own pages); sequentially it targets the next batch.
	PrefetchPages int `json:"prefetch_pages"`
	// CachePolicy selects the BlockCache replacement policy for both paged
	// stores: "lru" (default) or "admit" (TinyLFU-style frequency sketch
	// that rejects cold pages instead of evicting hot ones). Residency
	// only — decoded values never change.
	CachePolicy string `json:"cache_policy"`
}

// Normalize fills defaults (paper's §IV settings scaled only where the
// caller overrides them).
func (o Options) Normalize() Options {
	if o.Arch == "" {
		o.Arch = "graphsage"
	}
	if o.Batch == 0 {
		o.Batch = 512
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{30, 30, 30}
	}
	if o.Hidden == 0 {
		o.Hidden = 256
	}
	if o.Heads == 0 {
		o.Heads = 4
	}
	if o.LR == 0 {
		o.LR = 0.003
	}
	if o.RealWorkers == 0 {
		o.RealWorkers = 1
	}
	return o
}

// modelConfig returns the model o describes over ds, or why no run can use
// o (Check). It runs after Normalize, which fills the zeros.
func (o Options) modelConfig(ds *dataset.Dataset) (gnn.Config, error) {
	cfg := gnn.Config{
		InDim:   ds.Spec.FeatDim,
		Hidden:  o.Hidden,
		Classes: ds.Spec.NumClasses,
		Layers:  len(o.Fanouts),
		Heads:   o.Heads,
		Dropout: o.Dropout,
		Backend: o.Backend,
		Seed:    o.Seed,
	}
	return cfg, o.Check()
}

// Check reports why no run can use o, whatever the dataset: whatever
// gnn.Check refuses of its architecture, hidden size, heads and dropout, a
// negative number in any other numeric field but Seed (a NaN learning rate
// too), a fanout below 1 or a storage spelling StoreOptions refuses — each
// named. Zeros are checked as Normalize fills them, so a command can check
// its flags before it builds a dataset.
func (o Options) Check() error {
	o = o.Normalize()
	if err := gnn.Check(o.Arch, gnn.Config{Hidden: o.Hidden, Heads: o.Heads, Dropout: o.Dropout}); err != nil {
		return err
	}
	v := reflect.ValueOf(o)
	for i := range v.NumField() {
		f, name, bad := v.Field(i), v.Type().Field(i).Name, false
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			bad = f.Int() < 0 && name != "Seed"
		case reflect.Float32, reflect.Float64:
			bad = !(f.Float() >= 0) // NaN fails too
		}
		if bad {
			return fmt.Errorf("train: Options.%s is %v; want a non-negative value", name, f)
		}
	}
	for hop, fan := range o.Fanouts {
		if fan <= 0 {
			return fmt.Errorf("train: Options.Fanouts[%d] is %d; want a positive fanout", hop, fan)
		}
	}
	_, err := o.StoreOptions()
	return err
}

// StoreOptions translates the storage knobs' user spellings — policy and
// encoding names, budgets in MiB — into the store's own options. It is the
// one such translation: New and serve.New build their stores from it.
func (o Options) StoreOptions() (core.StoreOptions, error) {
	so := core.StoreOptions{PagedFeatures: o.PagedFeatures, PagedTopo: o.PagedTopo}
	policy, err := blockcache.ParsePolicy(o.CachePolicy)
	if err != nil {
		return so, err
	}
	if o.PagedFeatures {
		enc, err := featstore.ParseEncoding(o.FeatEncoding)
		if err != nil {
			return so, err
		}
		so.Feat = featstore.Options{
			Encoding:   enc,
			PageRows:   o.FeatPageRows,
			CacheBytes: int64(o.FeatCacheMB) << 20,
			Policy:     policy,
		}
	}
	if o.PagedTopo {
		so.Topo = topostore.Options{
			PageEdges:  o.TopoPageEdges,
			CacheBytes: int64(o.TopoCacheMB) << 20,
			Policy:     policy,
		}
	}
	return so, nil
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch     int
	Iters     int     // iterations per worker this epoch
	EpochTime float64 // virtual seconds, max across devices
	Timing    core.Timing
	Loss      float64 // mean training loss
	TrainAcc  float64 // mean training batch accuracy
}

// BatchLoader produces training batches for one worker device. The
// WholeGraph pipeline uses core.Loader; the host-memory baselines use
// their own loaders (internal/baseline).
type BatchLoader interface {
	// BuildBatch samples, deduplicates and gathers the batch for the given
	// target nodes (original IDs), charging whatever executors it uses.
	BuildBatch(targets []int64) (*gnn.Batch, core.Timing)
	// Device is the GPU the worker trains on.
	Device() *sim.Device
}

// PrefetchingLoader is a BatchLoader that can additionally build the next
// batch on its device's copy stream while compute consumes the current
// one (core.Loader's two batch faces). Options.Pipeline uses this path when
// every worker's loader implements it; baselines that only BuildBatch run
// sequentially regardless.
type PrefetchingLoader interface {
	BatchLoader
	// Prefetch starts building the batch for targets on the copy stream.
	Prefetch(targets []int64)
	// Collect waits for and returns the prefetched batch.
	Collect() (*gnn.Batch, core.Timing)
	// Release marks the most recently collected batch dead, unblocking
	// reuse of its batch object.
	Release()
}

// PagePrefetcher is a BatchLoader that can fault the paged-store pages an
// upcoming batch will touch on the copy stream ahead of demand
// (core.Loader over paged stores). Options.PrefetchPages uses this path;
// loaders without paged stores return 0 from it.
type PagePrefetcher interface {
	// PrefetchPages predicts and faults up to maxPages pages per paged
	// store for the given targets, returning the count actually faulted.
	PrefetchPages(targets []int64, maxPages int) int
}

// loaderParts is a loader's optional interfaces.
type loaderParts struct {
	prefetch PrefetchingLoader
	plan     BatchPlanner
	pages    PagePrefetcher
}

// BatchPlanner is a BatchLoader that can be hinted the target lists of its
// next builds, so that it may build ahead of them (core.Loader's run-ahead
// builder). RunEpoch hints each worker's epoch through it when the loader
// offers it, and the next epoch's first lists during this epoch's last step.
type BatchPlanner interface {
	// Plan hints the target lists of the next builds, in order; lists stays
	// untouched while hinted. A build of anything else undoes the builds
	// ahead and drops the hint; a later Plan keeps those its lists begin with.
	Plan(lists [][]int64)
	// Join waits for the builds running ahead.
	Join()
}

// Trainer is the data-parallel trainer over a simulated machine. With the
// WholeGraph loader each machine node holds one replica of the graph store
// (§III-D); with a baseline loader the graph lives in host memory.
type Trainer struct {
	Machine *sim.Machine
	Opts    Options
	Stores  []*core.Store // one per node; nil for baseline pipelines
	Models  []gnn.Model   // one per real worker
	Opts4   []*nn.Adam    // optimizer per real worker
	ds      *dataset.Dataset
	loaders []BatchLoader
	// parts holds each loader's optional interfaces (nil where it lacks
	// one), asserted once in NewCustom: the epoch loop asserts none, because
	// the runtime fills an assertion site's type cache with an allocation at
	// a random call.
	parts  []loaderParts
	shards [][]int64 // training shard per worker slot (all devices)
	rng    *rand.Rand
	epoch  int

	// tapes holds one arena-backed tape per real worker, Reset at the top of
	// every iteration so the steady state reuses the previous step's tensors.
	// Each tape (and its arena) is owned by its worker's goroutine inside
	// sim.RunParallel, mirroring device ownership.
	tapes []*autograd.Tape
	// averageGradients scratch: the per-replica parameter lists are stable
	// across iterations, as are the per-parameter accumulator shapes.
	avgParams [][]*nn.Param
	avgSums   []*tensor.Dense
	// ov is the gradient-overlap bucket state (Options.OverlapGrads),
	// built lazily by ensureOverlap.
	ov *overlapState
	// bucketCap is the gradient-bucket coalescing threshold in bytes for
	// Options.OverlapGrads (DDP bucket_cap_mb-style): defaultBucketBytes,
	// unless a package test sets it before the first epoch.
	bucketCap int
	// gs is the step-graph capture state (Options.Schedule), one per
	// real worker, built lazily by ensureGraphState.
	gs []workerGraphs
	// ep is RunEpoch's per-worker scratch, kept across epochs so a
	// steady-state epoch allocates nothing of its own.
	ep epochScratch
}

// epochScratch is what RunEpoch needs per worker: two buffers, this epoch's
// and the next one's, each of the shuffled ids, the batches cut from them
// and the lists the epoch builds in order; and each iteration's timings,
// start clocks and results.
type epochScratch struct {
	ids     [2][][]int64
	batches [2][][][]int64
	lists   [2][][][]int64
	// cur indexes this epoch's buffer; drawn says the other one holds the
	// next epoch's, drawn during this epoch's last step.
	cur          int
	drawn        bool
	timings      []core.Timing
	iterDevStart []float64
	trainStart   []float64
	// results holds one iteration's per-worker outcome; losses and
	// accuracies are reduced in worker order after the join so the sums are
	// bit-identical to serial execution.
	results []stepResult
}

// epochScratch returns the scratch sized for the trainer's workers.
func (t *Trainer) epochScratch() *epochScratch {
	ep := &t.ep
	if n := len(t.Models); len(ep.results) != n {
		*ep = epochScratch{
			timings:      make([]core.Timing, n),
			iterDevStart: make([]float64, n),
			trainStart:   make([]float64, n),
			results:      make([]stepResult, n),
		}
		for i := range ep.ids {
			ep.ids[i] = make([][]int64, n)
			ep.batches[i] = make([][][]int64, n)
			ep.lists[i] = make([][][]int64, n)
		}
	}
	return ep
}

// drawEpoch shuffles every worker's shard into buffer i: an epoch's draws
// from t.rng, which nothing else consumes.
func (t *Trainer) drawEpoch(ep *epochScratch, i int) {
	for w := range t.Models {
		ep.batches[i][w] = core.EpochBatchesInto(ep.batches[i][w], &ep.ids[i][w], t.shards[w], t.Opts.Batch, t.rng)
	}
}

// listEpoch lists the measured builds of buffer i's epoch per worker: batch
// it%len for it < measured, so the wrap of a short shard and the
// MaxItersPerEpoch cap are in the lists.
func (ep *epochScratch) listEpoch(i, measured int) {
	for w, b := range ep.batches[i] {
		lists := ep.lists[i][w][:0]
		for it := 0; it < measured; it++ {
			lists = append(lists, b[it%len(b)])
		}
		ep.lists[i][w] = lists
	}
}

// New builds a WholeGraph trainer: it partitions the store onto every node
// (charging setup) and instantiates identical model replicas.
func New(m *sim.Machine, ds *dataset.Dataset, opts Options) (*Trainer, error) {
	opts = opts.Normalize()
	if _, err := opts.modelConfig(ds); err != nil {
		return nil, err
	}
	if ds.Feat == nil && ds.Gen != nil && !opts.PagedFeatures {
		return nil, fmt.Errorf("train: %s is out-of-core; set Options.PagedFeatures", ds.Spec.Name)
	}
	if ds.Graph == nil && !opts.PagedTopo {
		return nil, fmt.Errorf("train: %s is out-of-core (no materialized CSR); set Options.PagedTopo", ds.Spec.Name)
	}
	so, err := opts.StoreOptions()
	if err != nil {
		return nil, err
	}
	var stores []*core.Store
	for n := 0; n < m.Cfg.Nodes; n++ {
		s, err := core.NewStoreOpts(m, n, ds, so)
		if err != nil {
			return nil, err
		}
		stores = append(stores, s)
	}
	t, err := NewCustom(m, ds, opts, func(w int, dev *sim.Device) BatchLoader {
		return core.NewLoader(stores[0], dev, opts.Fanouts, opts.Seed+int64(w))
	})
	if err != nil {
		return nil, err
	}
	t.Stores = stores
	return t, nil
}

// NewCustom builds a trainer whose batches come from mkLoader (one loader
// per real worker). It is the extension point the baseline pipelines use.
func NewCustom(m *sim.Machine, ds *dataset.Dataset, opts Options,
	mkLoader func(w int, dev *sim.Device) BatchLoader) (*Trainer, error) {
	opts = opts.Normalize()
	cfg, err := opts.modelConfig(ds)
	if err != nil {
		return nil, err
	}
	t := &Trainer{Machine: m, Opts: opts, ds: ds, rng: rand.New(rand.NewSource(opts.Seed)), bucketCap: defaultBucketBytes}
	totalWorkers := len(m.Devs)
	t.shards = core.ShardTraining(ds.Train, totalWorkers)
	if opts.RealWorkers > m.Cfg.GPUsPerNode {
		return nil, fmt.Errorf("train: RealWorkers %d > GPUs per node %d", opts.RealWorkers, m.Cfg.GPUsPerNode)
	}
	// Worker w trains on every len(m.Devs)-th target from the w-th on; one
	// with none would divide its epoch by zero batches.
	if n := len(ds.Train); n < opts.RealWorkers {
		return nil, fmt.Errorf("train: %s has %d training nodes for %d real workers; worker %d would have no targets",
			ds.Spec.Name, n, opts.RealWorkers, n)
	}
	for w := 0; w < opts.RealWorkers; w++ {
		t.Models = append(t.Models, gnn.New(opts.Arch, cfg))
		t.Opts4 = append(t.Opts4, nn.NewAdam(opts.LR))
		dev := m.NodeDevs(0)[w]
		if opts.Trace && w == 0 {
			dev.Tracing = true
		}
		ld := mkLoader(w, dev)
		var p loaderParts
		p.prefetch, _ = ld.(PrefetchingLoader)
		p.plan, _ = ld.(BatchPlanner)
		p.pages, _ = ld.(PagePrefetcher)
		t.loaders, t.parts = append(t.loaders, ld), append(t.parts, p)
		t.tapes = append(t.tapes, autograd.NewTapeArena(tensor.NewArena()))
	}
	return t, nil
}

// Dataset returns the training dataset.
func (t *Trainer) Dataset() *dataset.Dataset { return t.ds }

// ItersPerEpoch returns the iteration count each worker runs per epoch.
func (t *Trainer) ItersPerEpoch() int {
	shard := len(t.shards[0])
	b := t.Opts.Batch
	return (shard + b - 1) / b
}

// ensureAvgState builds the stable per-replica parameter lists and the
// per-parameter accumulator slots used by gradient averaging.
func (t *Trainer) ensureAvgState() {
	if t.avgParams == nil {
		t.avgParams = make([][]*nn.Param, len(t.Models))
		for w, mdl := range t.Models {
			t.avgParams[w] = mdl.Params().Params()
		}
		t.avgSums = make([]*tensor.Dense, len(t.avgParams[0]))
	}
}

// averageParam averages parameter pi's gradient across the replicas in
// worker order and writes the mean back into every replica. The overlap
// path calls this per bucket and the blocking path for every parameter, so
// both produce bit-identical gradients.
func (t *Trainer) averageParam(pi int) {
	params := t.avgParams
	var sum *tensor.Dense
	n := 0
	for w := range params {
		g := params[w][pi].Grad()
		if g == nil {
			continue
		}
		if sum == nil {
			if t.avgSums[pi] == nil {
				t.avgSums[pi] = tensor.New(g.R, g.C)
			}
			sum = t.avgSums[pi]
			copy(sum.V, g.V)
		} else {
			tensor.AccumInto(sum, g)
		}
		n++
	}
	if sum == nil {
		return
	}
	tensor.ScaleInto(sum, sum, 1/float32(n))
	for w := range params {
		if g := params[w][pi].Grad(); g != nil {
			copy(g.V, sum.V)
		}
	}
}

// averageGradients replicates data-parallel gradient averaging across the
// real workers (pure math) and charges one blocking full-machine
// hierarchical AllReduce for the model's gradient bytes.
func (t *Trainer) averageGradients() {
	if len(t.Models) > 1 {
		t.ensureAvgState()
		for pi := range t.avgParams[0] {
			t.averageParam(pi)
		}
	}
	bytes := float64(4 * t.Models[0].Params().NumElements())
	sim.HierarchicalAllReduce(t.Machine, bytes)
}

// Pipelined reports whether epochs run the overlapped loader path:
// Options.Pipeline is set and every worker's loader supports prefetching.
func (t *Trainer) Pipelined() bool {
	if !t.Opts.Pipeline {
		return false
	}
	for _, p := range t.parts {
		if p.prefetch == nil {
			return false
		}
	}
	return true
}

// lookahead is how many batches each worker's loader builds ahead of the
// one it trains on: 1 on the pipelined path, 0 sequentially. (A method, not
// a reassigned local, so RunEpoch's closures capture it by value and an
// epoch allocates nothing for it.)
func (t *Trainer) lookahead() int {
	if t.Pipelined() {
		return 1
	}
	return 0
}

// maxComputeTime is the largest compute-stream clock in the machine; the
// pipelined path uses it as the iteration baseline so in-flight copy
// streams (which may run ahead) do not skew the mirror-device charge.
func maxComputeTime(m *sim.Machine) float64 {
	t := 0.0
	for _, d := range m.Devs {
		if n := d.StreamNow(sim.StreamCompute); n > t {
			t = n
		}
	}
	for _, c := range m.CPUs {
		if c.Now() > t {
			t = c.Now()
		}
	}
	return t
}

// RunEpoch trains one epoch and returns its statistics. Per iteration, each
// real worker builds and trains on its own batch; mirror devices are
// advanced by the real workers' mean busy time so machine-level clocks and
// the AllReduce barrier behave as with a full worker set.
//
// A worker's loader builds lookahead batches ahead of the one it trains on.
// Sequentially (lookahead 0) it builds each batch when the iteration needs
// it. With Options.Pipeline and prefetch-capable loaders (lookahead 1) each
// worker collects the batch its loader prefetched on the copy stream,
// immediately issues the prefetch of the next batch, and only then runs
// forward/backward — so batch i+1's sample/dedup/gather overlaps iteration
// i's compute. The loader consumes targets in the same order either way, so
// losses, gradients and model state are bit-identical; only the virtual
// clocks differ.
//
// With parallel execution on, each worker's loader is hinted its epoch's
// builds (BatchPlanner) and builds batch it+1 on a second goroutine while
// iteration it computes; during the last step it is hinted the next epoch's
// first one (sequential) or two (pipelined) batches and builds them, which
// the next epoch's hint keeps and anything built in between (Evaluate,
// Predict) undoes. RunEpoch joins those builds before it returns. With
// parallel execution off everything stays on this goroutine.
func (t *Trainer) RunEpoch() EpochStats {
	t.epoch++
	stats := EpochStats{Epoch: t.epoch}
	iters := t.ItersPerEpoch()
	measured := iters
	if t.Opts.MaxItersPerEpoch > 0 && measured > t.Opts.MaxItersPerEpoch {
		measured = t.Opts.MaxItersPerEpoch
	}
	lookahead := t.lookahead()
	overlap := t.Opts.OverlapGrads
	if overlap {
		t.ensureOverlap()
	}
	if t.Opts.Schedule {
		t.ensureGraphState()
	}
	start := t.Machine.MaxTime()
	ep := t.epochScratch()
	if ep.drawn {
		ep.cur ^= 1
		ep.drawn = false
	} else {
		t.drawEpoch(ep, ep.cur)
	}
	ep.listEpoch(ep.cur, measured)
	lists, next := ep.lists[ep.cur], ep.lists[ep.cur^1]
	timings, results := ep.timings, ep.results
	iterDevStart, trainStart := ep.iterDevStart, ep.trainStart
	plan := sim.ParallelEnabled()
	if plan {
		for w, p := range t.parts {
			if p.plan != nil {
				p.plan.Plan(lists[w])
			}
		}
	}

	// Forward + backward on every real worker. Workers are independent until
	// the gradient AllReduce: each owns its device, loader, model replica and
	// RNG streams, so they run on real goroutines. (Both per-worker functions
	// are made once per epoch, not per iteration: each is a heap closure.)
	var it int
	var planNext bool
	forward := func(w int) {
		ld := t.loaders[w]
		dev := ld.Device()
		targets := lists[w]
		iterDevStart[w] = dev.Now()
		var b *gnn.Batch
		if lookahead == 0 {
			b, timings[w] = ld.BuildBatch(targets[it])
		} else {
			// Prime the ring on the first iteration, collect the batch in
			// flight and re-arm the ring at once, so the next build overlaps
			// this step's compute.
			pl := t.parts[w].prefetch
			if it == 0 {
				pl.Prefetch(targets[0])
			}
			b, timings[w] = pl.Collect()
			if it+1 < measured {
				pl.Prefetch(targets[it+1])
			}
		}
		if p := t.parts[w].plan; planNext && p != nil {
			p.Plan(next[w][:min(lookahead+1, measured)])
		}
		// Fault prefetch: predict the pages of the batch after the last one
		// being built (whose own build already faults its pages) and migrate
		// them on the copy stream while this iteration's forward/backward
		// runs on compute.
		if pp := t.parts[w].pages; pp != nil && t.Opts.PrefetchPages > 0 {
			if ahead := it + 1 + lookahead; ahead < measured {
				pp.PrefetchPages(targets[ahead], t.Opts.PrefetchPages)
			}
		}
		trainStart[w] = dev.Now()
		results[w] = t.step(w, b)
		if lookahead > 0 {
			t.parts[w].prefetch.Release()
		}
	}
	optimize := func(w int) {
		mdl := t.Models[w]
		dev := t.loaders[w].Device()
		if overlap {
			// Join this device's compute stream with the completion of its
			// own last gradient bucket on the copy stream.
			dev.WaitEvent(sim.Event{T: t.ov.lastDone[dev.ID]}, "grad-sync")
		}
		t.Opts4[w].Step(dev, mdl.Params())
		if dev.InGraphReplay() {
			// Close a scheduled step's graph bracket: loss, gradient sync and
			// the optimizer all replayed inside it, so the whole step cost one
			// graph launch.
			dev.EndGraphReplay()
		}
		timings[w].Train += dev.Now() - trainStart[w]
		// Compute-stream span of the whole iteration: with a sequential
		// loader this equals Sample+Gather+Train; pipelined it is shorter
		// because extraction hides behind compute.
		timings[w].Crit = dev.Now() - iterDevStart[w]
	}

	var lossSum, accSum float64
	for it = 0; it < measured; it++ {
		iterStart := t.Machine.MaxTime()
		if lookahead > 0 {
			iterStart = maxComputeTime(t.Machine)
		}
		// The next epoch's draws, taken now so that its first builds can run
		// during this last step.
		planNext = plan && it == measured-1
		if planNext {
			t.drawEpoch(ep, ep.cur^1)
			ep.listEpoch(ep.cur^1, measured)
			ep.drawn = true
		}
		sim.RunParallel(len(t.Models), forward)
		for w := range results {
			lossSum += results[w].loss
			accSum += results[w].acc
		}
		// Mirror the real workers' busy time onto the non-real devices so
		// the AllReduce barrier sees a realistic arrival pattern.
		var busiest float64
		for w := range t.Models {
			if busy := t.loaders[w].Device().Now() - iterStart; busy > busiest {
				busiest = busy
			}
		}
		for _, dev := range t.Machine.Devs {
			if t.isRealWorker(dev) {
				continue
			}
			dev.Kernel(sim.KernelCost{
				FLOPs: busiest * t.Machine.Cfg.Device.FP32TFLOPS * 1e12 * t.Machine.Cfg.Device.GemmEff,
				Tag:   "mirror",
			})
		}
		// Data parallelism: average gradients across replicas, then every
		// worker takes the identical optimizer step on its own replica.
		if overlap {
			t.overlapGradSync()
		} else {
			t.averageGradients()
		}
		sim.RunParallel(len(t.Models), optimize)
		for w := range t.Models {
			stats.Timing.Add(timings[w])
		}
	}
	if plan {
		for _, p := range t.parts {
			if p.plan != nil {
				p.plan.Join()
			}
		}
	}
	stats.Iters = iters
	stats.Loss = lossSum / float64(measured*len(t.Models))
	stats.TrainAcc = accSum / float64(measured*len(t.Models))
	elapsed := t.Machine.MaxTime() - start
	// Extrapolate to the full epoch when iterations were capped, and
	// normalize the phase breakdown to a per-worker view comparable with
	// the epoch time.
	scale := float64(iters) / float64(measured) / float64(len(t.Models))
	stats.EpochTime = elapsed * float64(iters) / float64(measured)
	stats.Timing.Sample *= scale
	stats.Timing.Gather *= scale
	stats.Timing.Train *= scale
	stats.Timing.Crit *= scale
	return stats
}

func (t *Trainer) isRealWorker(dev *sim.Device) bool {
	for _, ld := range t.loaders {
		if ld.Device() == dev {
			return true
		}
	}
	return false
}

// inferBatches runs sampled inference in evaluation mode (no dropout) on
// worker 0 over ids, Opts.Batch at a time, charged to the worker's device.
// The loader needs distinct targets, so duplicate ids within a batch are
// coalesced the way the serving replicas do it: sampled and forwarded once,
// with slot mapping every position back to its row. visit gets each batch's
// offset into ids, its logits (one row per distinct id, valid until the next
// batch) and that mapping. An id outside [0, N) is an error, found before
// anything is charged.
func (t *Trainer) inferBatches(ids []int64, visit func(off int, logits *tensor.Dense, slot []int)) error {
	n := int64(len(t.ds.Labels))
	for _, v := range ids {
		if v < 0 || v >= n {
			return fmt.Errorf("train: node id %d outside [0, %d)", v, n)
		}
	}
	model := t.Models[0]
	dev := t.loaders[0].Device()
	at := make(map[int64]int)
	var uniq []int64
	var slot []int
	for off := 0; off < len(ids); off += t.Opts.Batch {
		end := min(off+t.Opts.Batch, len(ids))
		clear(at)
		uniq, slot = uniq[:0], slot[:0]
		for _, v := range ids[off:end] {
			i, seen := at[v]
			if !seen {
				i = len(uniq)
				at[v] = i
				uniq = append(uniq, v)
			}
			slot = append(slot, i)
		}
		b, _ := t.loaders[0].BuildBatch(uniq)
		tp := t.tapes[0]
		tp.ResetNoGrad()
		visit(off, model.Forward(dev, tp, b, false).Value, slot)
	}
	return nil
}

// accuracy is the share of positions of ids, among those with a label >= 0,
// whose predicted class (argmax of the logit row) equals label(i).
func (t *Trainer) accuracy(ids []int64, label func(i int) int32) (float64, error) {
	var correct, total float64
	err := t.inferBatches(ids, func(off int, logits *tensor.Dense, slot []int) {
		for i, at := range slot {
			if lab := label(off + i); lab >= 0 {
				total++
				if int32(tensor.ArgMax(logits.Row(at))) == lab {
					correct++
				}
			}
		}
	})
	if err != nil || total == 0 {
		return 0, err
	}
	return correct / total, nil
}

// Evaluate measures accuracy on up to maxNodes of the given split using
// worker 0's model and sampled inference (no dropout), charged to the
// worker's device. Epoch statistics are measured as deltas, so interleaving
// evaluation between epochs does not distort them. It fails on an id that is
// not a node of the dataset.
func (t *Trainer) Evaluate(ids []int64, maxNodes int) (float64, error) {
	if maxNodes > 0 && len(ids) > maxNodes {
		ids = ids[:maxNodes]
	}
	return t.accuracy(ids, func(i int) int32 { return t.ds.Labels[ids[i]] })
}

// EvaluateWithLabels measures accuracy over the given nodes against
// caller-provided ground-truth labels (the synthetic datasets know every
// node's true class, which gives the harness a lower-variance estimate
// than the small held-out splits of a scaled graph). Positions with a
// negative label are not counted. It fails on an id that is not a node of
// the dataset, or when the two lists differ in length.
func (t *Trainer) EvaluateWithLabels(ids []int64, labels []int32) (float64, error) {
	if len(ids) != len(labels) {
		return 0, fmt.Errorf("train: %d ids, %d labels", len(ids), len(labels))
	}
	return t.accuracy(ids, func(i int) int32 { return labels[i] })
}

// Predict returns the model's output vectors (logit rows) for the given
// nodes, running sampled inference in evaluation mode on worker 0. Output
// row i corresponds to ids[i], whether or not ids repeats a node. It fails
// on an id that is not a node of the dataset.
func (t *Trainer) Predict(ids []int64) ([][]float32, error) {
	out := make([][]float32, 0, len(ids))
	err := t.inferBatches(ids, func(_ int, logits *tensor.Dense, slot []int) {
		for _, at := range slot {
			out = append(out, slices.Clone(logits.Row(at)))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Worker0Device returns the traced device of the first real worker.
func (t *Trainer) Worker0Device() *sim.Device { return t.loaders[0].Device() }

// FeatStoreStats sums every node's paged feature store; the zero Stats when
// features are resident.
func (t *Trainer) FeatStoreStats() blockcache.Stats {
	feat, _ := t.storeStats()
	return feat
}

// TopoStoreStats sums every node's paged topology store; the zero Stats when
// topology is resident.
func (t *Trainer) TopoStoreStats() blockcache.Stats {
	_, topo := t.storeStats()
	return topo
}

// storeStats sums the two paged stores' Stats over every node.
func (t *Trainer) storeStats() (feat, topo blockcache.Stats) {
	for _, s := range t.Stores {
		f, tp := s.PagedStats()
		feat.Add(f)
		topo.Add(tp)
	}
	return feat, topo
}
