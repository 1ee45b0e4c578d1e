// Package baseline implements the host-memory GNN training pipelines the
// paper compares against (DGL v0.7.2 and PyG v2.0.2 style): graph structure
// and features live in host memory, neighbor sampling and feature gathering
// run on the CPU, and the prepared mini-batch crosses PCIe to the GPU each
// iteration (Figure 1). The GPU sits idle while the CPU prepares data,
// which is what caps these frameworks' GPU utilization in Figure 12.
//
// The training math is identical to the WholeGraph pipeline (the same
// models run on the same autograd stack), so accuracy parity (Table III,
// Figure 7) holds by construction, as it does in the paper; only the data
// path differs.
package baseline

import (
	"fmt"
	"math/rand"

	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/graph"
	"wholegraph/internal/sampling"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/train"
)

// Flavor selects which framework the pipeline emulates.
type Flavor = sampling.Flavor

// Framework flavors.
const (
	DGL = sampling.FlavorDGL
	PyG = sampling.FlavorPyG
)

// FlavorName returns the display name used in tables.
func FlavorName(f Flavor) string {
	if f == DGL {
		return "DGL"
	}
	return "PyG"
}

// HostLoader builds batches the DGL/PyG way: CPU sampling, CPU
// deduplication, CPU feature gather, then PCIe transfer of structure and
// features to the training GPU.
type HostLoader struct {
	DS      *dataset.Dataset
	CPU     *sim.CPU
	Dev     *sim.Device
	Fanouts []int
	Flavor  Flavor

	sampler *sampling.CPUSampler
	rng     *rand.Rand
}

// NewHostLoader creates a loader for dev whose CPU work is charged to cpu.
func NewHostLoader(ds *dataset.Dataset, cpu *sim.CPU, dev *sim.Device, fanouts []int, flavor Flavor, seed int64) *HostLoader {
	return &HostLoader{
		DS: ds, CPU: cpu, Dev: dev, Fanouts: fanouts, Flavor: flavor,
		sampler: sampling.NewCPUSampler(ds.Graph, cpu, flavor, seed),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Device implements train.BatchLoader.
func (l *HostLoader) Device() *sim.Device { return l.Dev }

// hostUniqueOps is the charged host cost per hash-map operation during CPU
// deduplication (hashing, probing, Python/C++ dispatch amortized).
const hostUniqueOps = 12

// BuildBatch implements train.BatchLoader. Phase attribution follows
// Figure 9: "sampling" covers CPU sampling + dedup + the sub-graph
// structure transfer; "gathering" covers the CPU feature gather + the
// feature transfer; training time is recorded by the caller.
func (l *HostLoader) BuildBatch(targets []int64) (*gnn.Batch, core.Timing) {
	var tm core.Timing
	// The CPU starts preparing when the GPU asks for the next batch:
	// no pipelining, as the paper's utilization traces show.
	l.CPU.SetNow(l.Dev.Now())

	c0 := l.CPU.Now()
	cur := targets
	blocks := make([]*spops.SubCSR, len(l.Fanouts))
	var structBytes float64
	for hop, fan := range l.Fanouts {
		nb := l.sampler.SampleLayer(cur, fan)
		// CPU-side append-unique with a hash map.
		index := make(map[int64]int32, len(cur)+len(nb.Neighbors))
		uniq := make([]int64, len(cur), len(cur)+len(nb.Neighbors))
		copy(uniq, cur)
		for i, v := range cur {
			index[v] = int32(i)
		}
		subID := make([]int32, len(nb.Neighbors))
		for i, v := range nb.Neighbors {
			id, ok := index[v]
			if !ok {
				id = int32(len(uniq))
				index[v] = id
				uniq = append(uniq, v)
			}
			subID[i] = id
		}
		dup := make([]int32, len(uniq))
		for _, id := range subID {
			dup[id]++
		}
		l.CPU.Ops(hostUniqueOps * float64(len(cur)+len(nb.Neighbors)))
		blk := &spops.SubCSR{
			NumTargets: len(cur),
			NumNodes:   len(uniq),
			RowPtr:     nb.Offsets,
			Col:        subID,
			DupCount:   dup,
		}
		if l.DS.Spec.Weighted {
			// Host-side edge-weight lookup for the sampled edges.
			blk.EdgeW = make([]float32, 0, len(nb.Neighbors))
			for i, tgt := range cur {
				for _, v := range nb.Neighbors[nb.Offsets[i]:nb.Offsets[i+1]] {
					blk.EdgeW = append(blk.EdgeW, graph.HashEdgeWeight(tgt, v))
				}
			}
			l.CPU.Gather(float64(4 * len(blk.EdgeW)))
			structBytes += float64(4 * len(blk.EdgeW))
		}
		blocks[len(l.Fanouts)-1-hop] = blk
		structBytes += float64(8*len(nb.Offsets) + 4*len(subID))
		cur = uniq
	}
	sampleCPU := l.CPU.Now() - c0

	// CPU feature gather for the input node set.
	dim := l.DS.Spec.FeatDim
	feat := tensor.New(len(cur), dim)
	for i, v := range cur {
		copy(feat.Row(i), l.DS.Feat[v*int64(dim):(v+1)*int64(dim)])
	}
	featBytes := float64(4 * len(cur) * dim)
	l.CPU.Gather(featBytes)
	gatherCPU := l.CPU.Now() - c0 - sampleCPU

	// The GPU waits for the CPU, then receives structure and features
	// over its PCIe share.
	d0 := l.Dev.Now()
	l.Dev.IdleUntil(l.CPU.Now())
	wait := l.Dev.Now() - d0
	// Attribute the wait proportionally to the two CPU phases.
	total := sampleCPU + gatherCPU
	if total > 0 {
		tm.Sample += wait * sampleCPU / total
		tm.Gather += wait * gatherCPU / total
	}
	tm.Sample += l.Dev.HostCopy(structBytes)
	tm.Gather += l.Dev.HostCopy(featBytes)

	labels := make([]int32, len(targets))
	for i, v := range targets {
		labels[i] = l.DS.Labels[v]
	}
	return &gnn.Batch{Blocks: blocks, Feat: feat, Labels: labels}, tm
}

// New builds a DGL-like or PyG-like trainer over the machine. The layer
// backend follows the flavor (DGL layers for DGL, PyG layers for PyG),
// matching how the paper benchmarks the stock frameworks. Each worker gets
// its own host executor (the frameworks spawn one dataloader process per
// worker), so workers sample concurrently in virtual time and may run on
// real goroutines under sim.RunParallel; the first worker uses the node's
// primary CPU, keeping single-worker virtual times identical to earlier
// revisions. Options.Schedule is ignored: the stock frameworks dispatch
// every kernel eagerly.
func New(m *sim.Machine, ds *dataset.Dataset, opts train.Options, flavor Flavor) (*train.Trainer, error) {
	if ds.Graph == nil {
		return nil, fmt.Errorf("baseline: %s is out-of-core (no materialized CSR); the host-memory baselines sample from an in-RAM graph", ds.Spec.Name)
	}
	opts.Schedule = false
	if flavor == DGL {
		opts.Backend = spops.BackendDGL
	} else {
		opts.Backend = spops.BackendPyG
	}
	return train.NewCustom(m, ds, opts, func(w int, dev *sim.Device) train.BatchLoader {
		cpu := m.CPUs[dev.Node]
		if w > 0 {
			cpu = m.AddCPU(dev.Node)
		}
		return NewHostLoader(ds, cpu, dev, opts.Normalize().Fanouts, flavor, opts.Seed+int64(w))
	})
}
