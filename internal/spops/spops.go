// Package spops implements the sparse GNN layer ops of §III-C4 on the
// sampled sub-graph: generalized sparse-dense matrix multiplication
// (g-SpMM) for message passing, generalized sampled-dense-dense matrix
// multiplication (g-SDDMM) for edge-score computation and edge-weight
// gradients, and segment softmax for attention.
//
// Three layer backends are provided, matching the paper's Figure 11
// comparison. All three compute identical results; they differ in the real
// algorithm (and therefore cost) used:
//
//   - BackendNative: WholeGraph's fused CSR kernels. The backward dX pass
//     uses the duplicate counts from AppendUnique to replace atomic adds
//     with plain stores for nodes sampled at most once.
//   - BackendDGL: fused CSR kernels without the duplicate-count trick:
//     every backward scatter is an atomic read-modify-write.
//   - BackendPyG: PyG-style message materialization: the forward gathers
//     per-edge messages into an [E x d] buffer before reducing, and the
//     backward scatters through the same buffer, tripling memory traffic
//     and kernel launches.
//
// Like the built-in autograd ops, every op here is a kernel type recorded on
// the tape (autograd.Record): its Forward computes and charges the forward
// pass when the op is recorded and again on every replay, and its Backward
// charges the backward kernels it runs.
package spops

import (
	"fmt"

	"wholegraph/internal/sim"
)

// Backend selects the layer-op implementation.
type Backend int

const (
	BackendNative Backend = iota
	BackendDGL
	BackendPyG
)

// String returns the backend's display name.
func (b Backend) String() string {
	switch b {
	case BackendNative:
		return "wholegraph"
	case BackendDGL:
		return "dgl-layers"
	case BackendPyG:
		return "pyg-layers"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// SubCSR is a sampled sub-graph in CSR form: row t lists the sampled
// in-neighbors (as input sub-IDs) of target t. Input sub-IDs index the
// gathered feature matrix; targets are its first NumTargets rows.
type SubCSR struct {
	NumTargets int
	NumNodes   int
	RowPtr     []int64
	Col        []int32
	// DupCount[i] is how many times input node i appears in Col (produced
	// by AppendUnique); it enables the native backward optimization.
	DupCount []int32
	// EdgeW optionally carries one static weight per sampled edge (the
	// paper's edge features e_{s,t}); SpMM multiplies messages by it and
	// AggMean normalizes by the weight sum instead of the degree. Static
	// weights receive no gradient (learned attention uses the separate
	// edge-weight variable instead).
	EdgeW []float32
}

// NumEdges returns the sampled edge count.
func (g *SubCSR) NumEdges() int64 { return g.RowPtr[g.NumTargets] }

// Validate checks structural invariants; helpful when constructing
// sub-graphs by hand.
func (g *SubCSR) Validate() error {
	if len(g.RowPtr) != g.NumTargets+1 {
		return fmt.Errorf("spops: rowptr len %d for %d targets", len(g.RowPtr), g.NumTargets)
	}
	if g.NumTargets > g.NumNodes {
		return fmt.Errorf("spops: %d targets > %d nodes", g.NumTargets, g.NumNodes)
	}
	for i := 0; i < g.NumTargets; i++ {
		if g.RowPtr[i] > g.RowPtr[i+1] {
			return fmt.Errorf("spops: rowptr not monotone at %d", i)
		}
	}
	if g.RowPtr[g.NumTargets] != int64(len(g.Col)) {
		return fmt.Errorf("spops: rowptr end %d != edges %d", g.RowPtr[g.NumTargets], len(g.Col))
	}
	if g.EdgeW != nil && len(g.EdgeW) != len(g.Col) {
		return fmt.Errorf("spops: %d edge weights for %d edges", len(g.EdgeW), len(g.Col))
	}
	for _, c := range g.Col {
		if c < 0 || int(c) >= g.NumNodes {
			return fmt.Errorf("spops: col %d out of range [0,%d)", c, g.NumNodes)
		}
	}
	return nil
}

// atomicFraction returns the fraction of backward scatter writes that need
// atomics under the duplicate-count optimization.
func (g *SubCSR) atomicFraction() float64 {
	switch e := g.NumEdges(); {
	case e == 0:
		return 0
	case g.DupCount == nil:
		return 1
	}
	var atomic int64
	for _, c := range g.Col {
		if g.DupCount[c] > 1 {
			atomic++
		}
	}
	return float64(atomic) / float64(g.NumEdges())
}

// chargeSpMMForward charges one g-SpMM forward pass of dimension d.
func chargeSpMMForward(dev *sim.Device, be Backend, g *SubCSR, d int) {
	if dev == nil {
		return
	}
	e, tg := float64(g.NumEdges()), float64(g.NumTargets)
	dd := float64(d)
	switch be {
	case BackendPyG:
		// Gather messages to an [E x d] buffer, then reduce it.
		dev.Kernel(sim.KernelCost{RandBytes: e * dd * 4, StreamBytes: e*dd*4 + e*4, Tag: "spmm.gather"})
		dev.Kernel(sim.KernelCost{FLOPs: 2 * e * dd, StreamBytes: e*dd*4 + tg*dd*4, Tag: "spmm.reduce"})
	case BackendDGL:
		// DGL's g-SpMM forward adds an edge-data preparation pass (degree
		// norms / edge features are separate kernels in its message
		// passing pipeline) before the fused reduce.
		dev.Kernel(sim.KernelCost{StreamBytes: 2 * e * 4, Tag: "spmm.edgeprep"})
		dev.Kernel(sim.KernelCost{
			FLOPs: 2 * e * dd, RandBytes: e * dd * 4,
			StreamBytes: tg*dd*4 + e*4, Tag: "spmm.fwd",
		})
	default:
		// Fused CSR row kernel.
		dev.Kernel(sim.KernelCost{
			FLOPs: 2 * e * dd, RandBytes: e * dd * 4,
			StreamBytes: tg*dd*4 + e*4, Tag: "spmm.fwd",
		})
	}
}

// chargeSpMMBackwardDX charges the dX pass (transpose SpMM via scatter).
func chargeSpMMBackwardDX(dev *sim.Device, be Backend, g *SubCSR, d int) {
	if dev == nil {
		return
	}
	e, tg := float64(g.NumEdges()), float64(g.NumTargets)
	dd := float64(d)
	switch be {
	case BackendPyG:
		// Broadcast grad to [E x d], then scatter-add by column (atomic).
		dev.Kernel(sim.KernelCost{RandBytes: e * dd * 4, StreamBytes: e*dd*4 + tg*dd*4, Tag: "spmm.bwd.expand"})
		dev.Kernel(sim.KernelCost{RandBytes: 2 * e * dd * 4, StreamBytes: e * dd * 4, Tag: "spmm.bwd.scatter"})
	case BackendDGL:
		// Atomic add for every edge write: read-modify-write.
		dev.Kernel(sim.KernelCost{
			FLOPs: 2 * e * dd, RandBytes: 2 * e * dd * 4,
			StreamBytes: tg*dd*4 + e*4, Tag: "spmm.bwd",
		})
	default:
		// Native: atomics only where duplicate counts demand them.
		af := g.atomicFraction()
		dev.Kernel(sim.KernelCost{
			FLOPs: 2 * e * dd, RandBytes: (1 + af) * e * dd * 4,
			StreamBytes: tg*dd*4 + e*4, Tag: "spmm.bwd",
		})
	}
}

// chargeSDDMM charges a g-SDDMM of dimension d (edge scores or edge-weight
// gradients).
func chargeSDDMM(dev *sim.Device, g *SubCSR, d int) {
	if dev == nil {
		return
	}
	e := float64(g.NumEdges())
	dd := float64(d)
	dev.Kernel(sim.KernelCost{
		FLOPs: 2 * e * dd, RandBytes: 2 * e * dd * 4,
		StreamBytes: e * 4, Tag: "sddmm",
	})
}
