// Package wholegraph is a Go reproduction of "WholeGraph: A Fast Graph
// Neural Network Training Framework with Multi-GPU Distributed Shared
// Memory Architecture" (Yang, Liu, Qi, Lai — NVIDIA, SC 2022).
//
// The package is the user-facing facade over the implementation in
// internal/: a simulated multi-GPU machine (internal/sim), the distributed
// shared memory library (internal/wholemem), partitioned graph storage
// (internal/graph), the GNN ops of the paper — parallel sampling without
// replacement, AppendUnique, global gather, g-SpMM/g-SDDMM — and a full
// training stack (tensor math, autograd, GCN/GraphSAGE/GAT models, data
// parallel training) plus the DGL-like and PyG-like host-memory baselines
// the paper compares against.
//
// A minimal end-to-end run:
//
//	machine := wholegraph.NewDGXA100(1)
//	ds, _ := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.001))
//	trainer, _ := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
//		Arch: "graphsage", Batch: 64, Fanouts: []int{5, 5}, Hidden: 32,
//	})
//	for epoch := 0; epoch < 10; epoch++ {
//		stats := trainer.RunEpoch()
//		fmt.Printf("epoch %d: loss %.3f, %.1f ms (virtual)\n",
//			stats.Epoch, stats.Loss, stats.EpochTime*1e3)
//	}
//
// All reported durations are virtual seconds from the machine simulation:
// the algorithms run for real on real data, while their costs are charged
// to calibrated device clocks (see DESIGN.md for the substitution rationale
// and calibration sources).
package wholegraph

import (
	"strings"

	"wholegraph/internal/baseline"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gather"
	"wholegraph/internal/gnn"
	"wholegraph/internal/graph"
	"wholegraph/internal/sampling"
	"wholegraph/internal/serve"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/train"
	"wholegraph/internal/unique"
	"wholegraph/internal/wholemem"
)

// --- Machine simulation ---

// Machine is a simulated multi-GPU cluster with virtual clocks.
type Machine = sim.Machine

// MachineConfig describes the simulated hardware.
type MachineConfig = sim.MachineConfig

// Device is one simulated GPU.
type Device = sim.Device

// KernelCost describes one kernel for cost charging (advanced use: custom
// ops built directly on devices).
type KernelCost = sim.KernelCost

// NewDGXA100 builds a cluster of DGX-A100 nodes (8 GPUs each, NVSwitch,
// PCIe 4.0, InfiniBand between nodes), calibrated to the paper's
// microbenchmarks.
func NewDGXA100(nodes int) *Machine { return sim.NewMachine(sim.DGXA100(nodes)) }

// NewMachine builds a cluster from a custom configuration.
func NewMachine(cfg MachineConfig) *Machine { return sim.NewMachine(cfg) }

// DGXA100Config returns the calibrated DGX-A100 configuration for callers
// that want to tweak hardware parameters before NewMachine.
func DGXA100Config(nodes int) MachineConfig { return sim.DGXA100(nodes) }

// SetParallel toggles real-goroutine execution of simulated workers
// (training workers, serving replicas, gather pipelines). It is on by
// default; turning it off forces the serial reference path. Both paths
// produce bit-identical results and virtual times — only wall-clock time
// changes. Returns the previous setting.
func SetParallel(on bool) bool { return sim.SetParallel(on) }

// ParallelEnabled reports whether parallel device execution is on.
func ParallelEnabled() bool { return sim.ParallelEnabled() }

// SetTensorWorkers sets how many goroutines the tensor kernels may use for
// row-parallel loops (0 restores the default, runtime.NumCPU), and with them
// the fills that share their pool: the batches of the paged stores and
// dataset generation. Returns the previous setting.
func SetTensorWorkers(n int) int { return tensor.SetWorkers(n) }

// TensorWorkers reports the current tensor kernel worker count.
func TensorWorkers() int { return tensor.Workers() }

// --- Datasets ---

// DatasetSpec describes a synthetic dataset (sizes, feature dimension,
// label ratio, degree distribution).
type DatasetSpec = dataset.Spec

// Dataset is a generated graph with features, labels and splits.
type Dataset = dataset.Dataset

// Specs for the paper's four evaluation graphs (Table II) at full size; use
// Scaled to shrink them to laptop proportions.
var (
	OgbnProducts   = dataset.OgbnProducts
	OgbnPapers100M = dataset.OgbnPapers100M
	Friendster     = dataset.Friendster
	UKDomain       = dataset.UKDomain
)

// LookupDataset finds one of the paper's four evaluation graphs by its
// name, ignoring case.
func LookupDataset(name string) (DatasetSpec, bool) {
	for _, s := range dataset.All() {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return DatasetSpec{}, false
}

// CheckScale reports why f is not a dataset scale factor: it must be
// positive and finite.
func CheckScale(f float64) error { return dataset.CheckScale(f) }

// GenerateDataset builds the synthetic dataset described by spec.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return dataset.Generate(spec) }

// GenerateDatasetOutOfCore builds a dataset with the same spec, labels and
// splits as GenerateDataset but with neither the feature slab nor the edge
// list materialized: features are generated per row on demand, and the
// adjacency is a hash-defined edge source decoded per page. The topology is
// drawn from the same degree/homophily distribution as GenerateDataset but
// is NOT the same graph (the in-RAM generator builds its edge list by
// global sampling; the out-of-core source defines each node's neighbors by
// hashing). The bit-identical counterpart is MaterializeDatasetOutOfCore.
// Training such a dataset requires TrainOptions.PagedFeatures and
// TrainOptions.PagedTopo (wgtrain -out-of-core sets both).
func GenerateDatasetOutOfCore(spec DatasetSpec) (*Dataset, error) {
	return dataset.GenerateOutOfCore(spec)
}

// MaterializeDatasetOutOfCore builds the in-RAM twin of
// GenerateDatasetOutOfCore(spec): the same adjacency, features, labels and
// splits, materialized as a flat CSR and feature slab. Training over it is
// bit-identical to paged training over the out-of-core dataset. Only viable
// at scales that fit in host memory, by design.
func MaterializeDatasetOutOfCore(spec DatasetSpec) (*Dataset, error) {
	return dataset.MaterializeOutOfCore(spec)
}

// LoadDataset reads a dataset saved with Dataset.SaveFile (or wggen -save).
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// WriteChromeTrace serializes the recorded device timelines in the Chrome
// Trace Event format (view in chrome://tracing or Perfetto). Enable
// TrainOptions.Trace or Device.Tracing first.
var WriteChromeTrace = sim.WriteChromeTrace

// --- Graph storage ---

// GlobalID identifies a node as (owning rank, local index), the paper's
// multi-GPU node addressing scheme.
type GlobalID = graph.GlobalID

// CSR is a host-side adjacency structure.
type CSR = graph.CSR

// PartitionedGraph is the multi-GPU graph store: hash-partitioned nodes,
// edges with their source, features with their node, all in distributed
// shared memory.
type PartitionedGraph = graph.Partitioned

// Store couples a dataset with its partitioned placement on one machine
// node.
type Store = core.Store

// NewStore partitions ds across the GPUs of machine node `node`, charging
// the one-time allocation and IPC setup cost.
func NewStore(m *Machine, node int, ds *Dataset) (*Store, error) {
	return core.NewStore(m, node, ds)
}

// StoreOptions selects the storage backends of a store: flat slabs (zero
// value), the paged out-of-core feature store, and/or the paged out-of-core
// topology store. Decoded values are bit-identical across all combinations
// (with the raw feature encoding): paging changes virtual time and cache
// hit rates, never training results.
type StoreOptions = core.StoreOptions

// NewStoreWithOptions is NewStore with explicit storage backends.
// Out-of-core datasets (GenerateDatasetOutOfCore) require PagedFeatures and
// PagedTopo.
func NewStoreWithOptions(m *Machine, node int, ds *Dataset, opts StoreOptions) (*Store, error) {
	return core.NewStoreOpts(m, node, ds, opts)
}

// --- Ops ---

// SampleWithoutReplacement draws m distinct values from [0, n) with the
// paper's Algorithm 1 (parallel path-doubling resolution); m <= 0 or
// n <= 0 draws nothing.
var SampleWithoutReplacement = sampling.SampleWithoutReplacement

// AppendUnique deduplicates sampled neighbors against the target list,
// assigning contiguous sub-graph IDs and duplicate counts (§III-C2).
var AppendUnique = unique.AppendUnique

// UniqueResult is the output of AppendUnique.
type UniqueResult = unique.Result

// GatherRequest is one GPU's feature gather (rows in, features out).
type GatherRequest = gather.Request

// NewGatherRequest allocates a request with a sized output buffer.
var NewGatherRequest = gather.NewRequest

// SharedMemGather performs the single-kernel shared-memory global gather
// (Figure 4, right).
var SharedMemGather = gather.SharedMem

// DistributedGather performs the 5-step NCCL-style gather baseline
// (Figure 4, left).
var DistributedGather = gather.Distributed

// --- Models and training ---

// Model is a GNN producing logits for a batch's target nodes, for training
// and serving alike.
type Model = gnn.Model

// ModelConfig holds GNN hyperparameters.
type ModelConfig = gnn.Config

// Batch is a sampled multi-layer mini-batch (message flow graphs + gathered
// features + labels).
type Batch = gnn.Batch

// NewModel constructs "gcn", "graphsage" or "gat" from a config.
var NewModel = gnn.New

// CheckModel reports why NewModel would refuse an architecture and config.
var CheckModel = gnn.Check

// LayerBackend selects whose GNN layer kernels carry the compute
// (Figure 11): BackendNative, BackendDGL or BackendPyG.
type LayerBackend = spops.Backend

// Layer backends.
const (
	BackendNative = spops.BackendNative
	BackendDGL    = spops.BackendDGL
	BackendPyG    = spops.BackendPyG
)

// TrainOptions configures a training run; zero values take the paper's §IV
// defaults (batch 512, fanout 30/30/30, hidden 256, 4 heads). Its
// BindModelFlags and BindExecFlags methods declare the command-line flag of
// every field.
type TrainOptions = train.Options

// ParseFanouts reads per-layer sample counts from their command-line
// spelling, "10,10,5".
var ParseFanouts = train.ParseFanouts

// Trainer runs data-parallel GNN training over a simulated machine.
type Trainer = train.Trainer

// EpochStats reports one epoch: virtual epoch time, per-phase breakdown,
// loss and accuracy.
type EpochStats = train.EpochStats

// Loader builds WholeGraph mini-batches on one device (GPU sampling +
// AppendUnique + shared-memory gather).
type Loader = core.Loader

// NewLoader creates a batch loader over a store.
var NewLoader = core.NewLoader

// NewTrainer builds the WholeGraph trainer: one graph replica per machine
// node, one data-parallel worker per GPU.
func NewTrainer(m *Machine, ds *Dataset, opts TrainOptions) (*Trainer, error) {
	return train.New(m, ds, opts)
}

// BaselineFlavor selects which host-memory baseline framework to emulate.
type BaselineFlavor = baseline.Flavor

// Baseline flavors.
const (
	DGL = baseline.DGL
	PyG = baseline.PyG
)

// NewBaselineTrainer builds a DGL-like or PyG-like host-memory trainer: CPU
// sampling and gathering, PCIe transfers, identical model math.
func NewBaselineTrainer(m *Machine, ds *Dataset, opts TrainOptions, flavor BaselineFlavor) (*Trainer, error) {
	return baseline.New(m, ds, opts, flavor)
}

// --- Online serving ---

// ServeOptions configures an online serving run (arrival rate, dynamic
// batching, admission control, SLO); zero values take defaults.
type ServeOptions = serve.Options

// ServePolicy selects how requests are routed to replicas.
type ServePolicy = serve.Policy

// Serving routing policies.
const (
	ServeCacheAware = serve.PolicyCacheAware
	ServeOwner      = serve.PolicyOwner
	ServeRoundRobin = serve.PolicyRoundRobin
)

// Server serves online node-inference requests over a store with dynamic
// batching: one replica per GPU of the node, Poisson arrivals, bounded
// queues with load shedding and deadlines, latency percentiles against a
// configurable SLO — all in deterministic virtual time.
type Server = serve.Server

// ServeResult aggregates one serving run (throughput, shed/timeout counts,
// p50/p95/p99 latency, SLO attainment, per-replica stats).
type ServeResult = serve.Result

// ServeRequest is one request of the serving trace.
type ServeRequest = serve.Request

// ServeOutcome records what happened to one request.
type ServeOutcome = serve.Outcome

// Serving request outcomes.
const (
	Served        = serve.OutcomeServed
	ServeShed     = serve.OutcomeShed
	ServeTimedOut = serve.OutcomeTimedOut
)

// NewServer replicates a trained model onto every GPU of machine node
// `node` and prepares the request pipeline.
func NewServer(m *Machine, node int, ds *Dataset, model Model, opts ServeOptions) (*Server, error) {
	return serve.New(m, node, ds, model, opts)
}

// --- Shared memory (advanced) ---

// Comm is the set of device ranks sharing memory (one machine node).
type Comm = wholemem.Comm

// NewComm creates a communicator over the devices of one node.
var NewComm = wholemem.NewComm

// FloatMemory is a distributed shared float32 allocation.
type FloatMemory = wholemem.Memory[float32]

// AllocFloats creates a shared float32 allocation of n elements split
// across the communicator, performing the IPC setup protocol.
func AllocFloats(c *Comm, n int64) *FloatMemory { return wholemem.Alloc[float32](c, n) }
