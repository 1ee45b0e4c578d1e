// Package linkpred implements supervised link prediction over the
// shared-memory store — one of the three GNN tasks the paper names
// alongside node and graph classification (§I). Each iteration samples a
// batch of existing edges as positives and random non-adjacent pairs as
// negatives, encodes all endpoint nodes with a GNN through the WholeGraph
// sampling/gather pipeline, scores each candidate pair with the dot product
// of its endpoint embeddings, and trains end to end with binary
// cross-entropy; gradients flow through the score head into the encoder.
package linkpred

import (
	"fmt"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/core"
	"wholegraph/internal/gnn"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
)

// Options configures the link-prediction trainer.
type Options struct {
	// EdgeBatch is the number of positive edges per iteration (an equal
	// number of negatives is drawn).
	EdgeBatch int
	// Fanouts are the encoder's per-layer sample counts.
	Fanouts []int
	// Dim is the encoder's hidden and output embedding width.
	Dim  int
	LR   float64
	Seed int64
}

func (o Options) normalize() Options {
	if o.EdgeBatch == 0 {
		o.EdgeBatch = 128
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{5, 5}
	}
	if o.Dim == 0 {
		o.Dim = 32
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	return o
}

// Trainer trains a GraphSAGE encoder for link prediction on one device of
// a shared-memory store.
type Trainer struct {
	Store   *core.Store
	Dev     *sim.Device
	Encoder *gnn.SAGE
	Opts    Options

	loader *core.Loader
	opt    *nn.Adam
	rng    *rand.Rand
}

// New builds a link-prediction trainer over the store on dev.
func New(store *core.Store, dev *sim.Device, opts Options) (*Trainer, error) {
	opts = opts.normalize()
	if store.PG.Features() == nil {
		return nil, fmt.Errorf("linkpred: store has no node features")
	}
	cfg := gnn.Config{
		InDim:   store.DS.Spec.FeatDim,
		Hidden:  opts.Dim,
		Classes: opts.Dim, // output layer emits embeddings, not logits
		Layers:  len(opts.Fanouts),
		Heads:   1,
		Backend: spops.BackendNative,
		Seed:    opts.Seed,
	}
	return &Trainer{
		Store:   store,
		Dev:     dev,
		Encoder: gnn.NewSAGE(cfg),
		Opts:    opts,
		loader:  core.NewLoader(store, dev, opts.Fanouts, opts.Seed),
		opt:     nn.NewAdam(opts.LR),
		rng:     rand.New(rand.NewSource(opts.Seed ^ 0x11bb)),
	}, nil
}

// pairBatch is a sampled set of candidate edges over a deduplicated
// endpoint node list.
type pairBatch struct {
	nodes  []int64 // distinct endpoint node IDs
	u, v   []int   // indices into nodes per pair
	labels []float32
}

// samplePairs draws n positive edges and n negatives (rejecting real edges)
// and deduplicates the endpoints.
func (t *Trainer) samplePairs(n int) pairBatch {
	g := t.Store.DS.Graph
	var b pairBatch
	index := map[int64]int{}
	add := func(v int64) int {
		if i, ok := index[v]; ok {
			return i
		}
		i := len(b.nodes)
		index[v] = i
		b.nodes = append(b.nodes, v)
		return i
	}
	hasEdge := func(u, v int64) bool {
		for _, w := range g.Neighbors(u) {
			if w == v {
				return true
			}
		}
		return false
	}
	for len(b.labels) < n {
		e := t.rng.Int63n(g.NumEdges())
		// Locate the source of stored edge e by binary search on RowPtr.
		u := searchRow(g.RowPtr, e)
		v := g.Col[e]
		if u == v {
			continue
		}
		b.u = append(b.u, add(u))
		b.v = append(b.v, add(v))
		b.labels = append(b.labels, 1)
	}
	for neg := 0; neg < n; {
		u := t.rng.Int63n(g.N)
		v := t.rng.Int63n(g.N)
		if u == v || hasEdge(u, v) {
			continue
		}
		b.u = append(b.u, add(u))
		b.v = append(b.v, add(v))
		b.labels = append(b.labels, 0)
		neg++
	}
	return b
}

// searchRow returns the row whose [RowPtr[r], RowPtr[r+1]) contains e.
func searchRow(rowptr []int64, e int64) int64 {
	lo, hi := int64(0), int64(len(rowptr)-2)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if rowptr[mid] <= e {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// score encodes the batch's endpoints and returns the per-pair dot scores
// plus the tape they were computed on. Without train nothing is recorded.
func (t *Trainer) score(b pairBatch, train bool) (*autograd.Tape, *autograd.Var) {
	batch, _ := t.loader.BuildBatch(b.nodes)
	tp := autograd.NewTape()
	if !train {
		tp.ResetNoGrad()
	}
	emb := t.Encoder.Forward(t.Dev, tp, batch, train)
	eu := autograd.GatherRows(emb, b.u)
	ev := autograd.GatherRows(emb, b.v)
	return tp, autograd.RowDot(eu, ev)
}

// TrainStep runs one iteration and returns its BCE loss.
func (t *Trainer) TrainStep() float64 {
	b := t.samplePairs(t.Opts.EdgeBatch)
	tp, scores := t.score(b, true)
	grad := tensor.New(scores.Value.R, 1)
	loss := tensor.BCEWithLogits(scores.Value, b.labels, grad)
	tp.Backward(scores, grad)
	t.opt.Step(t.Dev, t.Encoder.Params())
	return loss
}

// EvalAUC scores n held-out positive edges against n fresh negatives and
// returns the ROC AUC.
func (t *Trainer) EvalAUC(n int) float64 {
	b := t.samplePairs(n)
	_, scores := t.score(b, false)
	s := make([]float64, scores.Value.R)
	for i, v := range scores.Value.V {
		s[i] = float64(v)
	}
	return tensor.AUC(s, b.labels)
}
