// Package gnn implements the three GNN models the paper evaluates (GCN,
// GraphSAGE with mean aggregation, and GAT with multi-head attention) over
// sampled multi-layer sub-graphs, on top of the autograd tape, the dense nn
// layers and the sparse spops kernels.
//
// The models are framework-agnostic in the paper's sense: the same model
// runs inside the WholeGraph pipeline and inside the DGL-like/PyG-like
// baseline pipelines, with the layer backend (spops.Backend) choosing whose
// kernel implementations carry the compute (Figure 11).
package gnn

import (
	"fmt"

	"wholegraph/internal/autograd"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// Batch is one training mini-batch in message-flow-graph form. Blocks[l] is
// the sampled bipartite block consumed by GNN layer l: its NumNodes input
// nodes carry the layer's input features (the block's NumTargets targets
// are the first NumTargets of them), and its targets become the next
// block's input nodes. Feat holds the gathered features of Blocks[0]'s
// input nodes; Labels label the final targets.
type Batch struct {
	Blocks []*spops.SubCSR
	Feat   *tensor.Dense
	Labels []int32
}

// Validate checks the block chaining invariants.
func (b *Batch) Validate() error {
	if len(b.Blocks) == 0 {
		return fmt.Errorf("gnn: batch has no blocks")
	}
	for l, blk := range b.Blocks {
		if err := blk.Validate(); err != nil {
			return fmt.Errorf("gnn: block %d: %w", l, err)
		}
		if l+1 < len(b.Blocks) && blk.NumTargets != b.Blocks[l+1].NumNodes {
			return fmt.Errorf("gnn: block %d targets %d != block %d nodes %d",
				l, blk.NumTargets, l+1, b.Blocks[l+1].NumNodes)
		}
	}
	if b.Feat.R != b.Blocks[0].NumNodes {
		return fmt.Errorf("gnn: feature rows %d != block 0 nodes %d", b.Feat.R, b.Blocks[0].NumNodes)
	}
	last := b.Blocks[len(b.Blocks)-1]
	if len(b.Labels) != last.NumTargets {
		return fmt.Errorf("gnn: %d labels for %d targets", len(b.Labels), last.NumTargets)
	}
	return nil
}

// BatchSize returns the number of final target nodes.
func (b *Batch) BatchSize() int { return b.Blocks[len(b.Blocks)-1].NumTargets }

// Model is a GNN producing logits for a batch's final targets. Its layers
// can also be applied one at a time to a single block, which full-graph
// layer-wise inference (internal/infer) and serving build on. All four
// built-in architectures implement it.
type Model interface {
	// Forward binds the parameters on tp and returns the logits
	// [BatchSize x classes]. dev may be nil to skip cost accounting;
	// train enables dropout.
	Forward(dev *sim.Device, tp *autograd.Tape, b *Batch, train bool) *autograd.Var
	// Params exposes the trainable parameters.
	Params() *nn.ParamSet
	// Name identifies the architecture ("gcn", "graphsage", "gat", "gin").
	Name() string
	// Config returns the model's hyperparameters.
	Config() Config
	// NumLayers returns the layer count.
	NumLayers() int
	// ForwardLayer applies layer l to block blk over input features x
	// (whose tape must already have the model's parameters bound). last
	// marks the output layer (no activation/dropout); train enables
	// dropout.
	ForwardLayer(dev *sim.Device, l int, blk *spops.SubCSR, x *autograd.Var, last, train bool) *autograd.Var
}

// forward is every architecture's Forward: bind m's parameters on tp, then
// apply its layers to b's blocks in turn.
func forward(m Model, dev *sim.Device, tp *autograd.Tape, b *Batch, train bool) *autograd.Var {
	m.Params().Bind(tp)
	x := tp.Const(b.Feat)
	for l, blk := range b.Blocks {
		x = m.ForwardLayer(dev, l, blk, x, l == len(b.Blocks)-1, train)
	}
	return x
}

// LayerOutDim returns the width of layer l's output under cfg.
func (c Config) LayerOutDim(l int) int {
	if l == c.Layers-1 {
		return c.Classes
	}
	return c.Hidden
}

// Config holds the common hyperparameters of the paper's evaluation:
// 3 layers, hidden 256, 4 GAT heads, dropout 0.5.
type Config struct {
	InDim   int
	Hidden  int
	Classes int
	Layers  int
	Heads   int // GAT only
	Dropout float32
	Backend spops.Backend
	Seed    int64
}

// withSelfLoops returns g with one self edge (t -> t) appended to every
// target row; targets are the first NumTargets input nodes, so the column
// index equals the row index. GCN and GAT aggregate over the closed
// neighborhood.
func withSelfLoops(g *spops.SubCSR) *spops.SubCSR {
	return withSelfLoopsInto(new(spops.SubCSR), g)
}

// withSelfLoopsInto is withSelfLoops writing into a caller-owned block,
// truncating and reusing its slices. GCN and GAT keep one block per layer
// as model-private scratch (each concurrent worker or inference rank owns
// its own model replica), so the steady state rebuilds the closed
// neighborhood without allocating. The result is valid until the next call
// with the same dst; backward closures capturing it fire within the same
// iteration, before any rewrite.
func withSelfLoopsInto(dst, g *spops.SubCSR) *spops.SubCSR {
	dst.NumTargets = g.NumTargets
	dst.NumNodes = g.NumNodes
	dst.RowPtr = append(dst.RowPtr[:0], 0)
	dst.Col = dst.Col[:0]
	if g.DupCount != nil {
		dst.DupCount = append(dst.DupCount[:0], g.DupCount...)
	} else {
		if cap(dst.DupCount) < g.NumNodes {
			dst.DupCount = make([]int32, g.NumNodes)
		}
		dst.DupCount = dst.DupCount[:g.NumNodes]
		clear(dst.DupCount)
	}
	if g.EdgeW != nil {
		dst.EdgeW = dst.EdgeW[:0]
	} else {
		dst.EdgeW = nil
	}
	for t := 0; t < g.NumTargets; t++ {
		dst.Col = append(dst.Col, g.Col[g.RowPtr[t]:g.RowPtr[t+1]]...)
		if g.EdgeW != nil {
			dst.EdgeW = append(dst.EdgeW, g.EdgeW[g.RowPtr[t]:g.RowPtr[t+1]]...)
		}
		dst.Col = append(dst.Col, int32(t))
		if g.EdgeW != nil {
			dst.EdgeW = append(dst.EdgeW, 1) // self edges carry unit weight
		}
		dst.DupCount[t]++
		dst.RowPtr = append(dst.RowPtr, int64(len(dst.Col)))
	}
	return dst
}

// loopScratch lazily provides per-layer self-loop blocks for models that
// aggregate over the closed neighborhood.
type loopScratch struct {
	loops []*spops.SubCSR
}

func (s *loopScratch) loop(l int) *spops.SubCSR {
	for len(s.loops) <= l {
		s.loops = append(s.loops, new(spops.SubCSR))
	}
	return s.loops[l]
}

// chargeEltwiseFwd charges the forward half of an elementwise pass over x
// now, and records the charge for replay when the tape is capturing (the
// element count is read live, tracking the batch size).
func chargeEltwiseFwd(dev *sim.Device, x *autograd.Var) {
	nn.ChargeElementwiseForward(dev, int64(len(x.Value.V)))
	if tp := x.Tape(); dev != nil && tp.Capturing() {
		tp.Capture(func() { nn.ChargeElementwiseForward(dev, int64(len(x.Value.V))) })
	}
}

// hookEltwiseBwd charges the backward half of an elementwise pass at
// tape-replay time, when out's gradient is actually computed — mirroring
// how Linear charges its backward GEMMs. in is the op's input: declaring
// the hook as producing in's gradient (OnBackwardFor) gives the charge its
// own node in the whole-step scheduler's DAG. A node that needs no gradient
// gets no hook: it could never fire.
func hookEltwiseBwd(dev *sim.Device, out, in *autograd.Var) {
	if dev != nil && out.NeedsGrad() {
		out.OnBackwardFor(in, func() { nn.ChargeElementwiseBackward(dev, int64(len(out.Value.V))) })
	}
}

// captureSelfLoops records blk's self-loop rebuild into the replay program
// when capturing, so replays refresh the scratch block from the live raw
// block before the ops that read it.
func captureSelfLoops(tp *autograd.Tape, dst, raw *spops.SubCSR) {
	if tp.Capturing() {
		tp.Capture(func() { withSelfLoopsInto(dst, raw) })
	}
}

// dropoutVar applies dropout when training with p > 0. The forward charge
// is recorded after the op so its capture rider lands on the dropout's DAG
// node (the element counts are equal either way).
func dropoutVar(dev *sim.Device, x *autograd.Var, p float32, train bool, src *xrand.Source) *autograd.Var {
	if !train || p <= 0 {
		return x
	}
	out := autograd.Dropout(x, p, src)
	chargeEltwiseFwd(dev, out)
	hookEltwiseBwd(dev, out, x)
	return out
}
