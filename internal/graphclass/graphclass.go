// Package graphclass implements graph classification over the shared-memory
// store — the third GNN task the paper names ("predicting categories of
// nodes or even graphs ... node classification and graph classification",
// §I), and the "dataset with millions of graphs" regime its introduction
// motivates. Many small graphs live concatenated in distributed shared
// memory; a training batch gathers the selected graphs' feature rows
// (contiguous per graph — large segments, the cheap end of the Figure 8
// curve), builds their disjoint union as one message-flow block, encodes it
// with a GIN, and mean-pools each graph's node embeddings into a prediction.
package graphclass

import (
	"fmt"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/gnn"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/wholemem"
)

// Spec describes a synthetic graph-classification dataset: each class is a
// topology motif (cycle, star, clique, path, double-cycle, wheel) whose
// structure the model must recognize; node features are noise plus a weak
// degree signal, so topology is the discriminative information.
type Spec struct {
	NumGraphs          int
	MinNodes, MaxNodes int
	FeatDim            int
	NumClasses         int // up to 6 motifs
	TrainFrac          float64
	Seed               int64
}

// Validate reports whether the spec is generatable.
func (s Spec) Validate() error {
	switch {
	case s.NumGraphs < 2:
		return fmt.Errorf("graphclass: need at least 2 graphs")
	case s.MinNodes < 3 || s.MaxNodes < s.MinNodes:
		return fmt.Errorf("graphclass: bad node range [%d,%d]", s.MinNodes, s.MaxNodes)
	case s.FeatDim < 1:
		return fmt.Errorf("graphclass: FeatDim must be positive")
	case s.NumClasses < 2 || s.NumClasses > 6:
		return fmt.Errorf("graphclass: NumClasses must be in [2,6]")
	case s.TrainFrac <= 0 || s.TrainFrac >= 1:
		return fmt.Errorf("graphclass: TrainFrac must be in (0,1)")
	}
	return nil
}

// Small is one small graph: N nodes and undirected edges.
type Small struct {
	N     int
	Edges [][2]int32
}

// Dataset is a set of labeled small graphs with node features.
type Dataset struct {
	Spec   Spec
	Graphs []Small
	// Feat concatenates all graphs' node features row-major; graph g's
	// rows start at RowBase[g].
	Feat    []float32
	RowBase []int64
	Labels  []int32
	// Train and Test index into Graphs.
	Train, Test []int
}

// Generate builds the dataset (deterministic per spec).
func Generate(s Spec) (*Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	d := &Dataset{Spec: s}
	var rows int64
	for g := 0; g < s.NumGraphs; g++ {
		cls := int32(g % s.NumClasses)
		n := s.MinNodes + rng.Intn(s.MaxNodes-s.MinNodes+1)
		sm := motif(int(cls), n)
		d.Graphs = append(d.Graphs, sm)
		d.Labels = append(d.Labels, cls)
		d.RowBase = append(d.RowBase, rows)
		rows += int64(sm.N)
	}
	d.RowBase = append(d.RowBase, rows)

	// Features: Gaussian noise plus the node's degree in the first
	// dimension (a weak structural hint; motifs remain the signal).
	deg := make(map[[2]int]int)
	for g, sm := range d.Graphs {
		for _, e := range sm.Edges {
			deg[[2]int{g, int(e[0])}]++
			deg[[2]int{g, int(e[1])}]++
		}
	}
	d.Feat = make([]float32, rows*int64(s.FeatDim))
	for g, sm := range d.Graphs {
		for v := 0; v < sm.N; v++ {
			row := d.Feat[(d.RowBase[g]+int64(v))*int64(s.FeatDim):]
			for j := 0; j < s.FeatDim; j++ {
				row[j] = float32(rng.NormFloat64()) * 0.3
			}
			row[0] += float32(deg[[2]int{g, v}]) * 0.5
		}
	}

	perm := rng.Perm(s.NumGraphs)
	nTrain := int(float64(s.NumGraphs) * s.TrainFrac)
	d.Train = append(d.Train, perm[:nTrain]...)
	d.Test = append(d.Test, perm[nTrain:]...)
	return d, nil
}

// motif builds the class's topology over n nodes.
func motif(cls, n int) Small {
	sm := Small{N: n}
	add := func(a, b int) {
		sm.Edges = append(sm.Edges, [2]int32{int32(a), int32(b)})
	}
	switch cls {
	case 0: // cycle
		for v := 0; v < n; v++ {
			add(v, (v+1)%n)
		}
	case 1: // star
		for v := 1; v < n; v++ {
			add(0, v)
		}
	case 2: // clique
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				add(a, b)
			}
		}
	case 3: // path
		for v := 0; v+1 < n; v++ {
			add(v, v+1)
		}
	case 4: // two disjoint cycles
		h := n / 2
		for v := 0; v < h; v++ {
			add(v, (v+1)%h)
		}
		for v := h; v < n; v++ {
			next := v + 1
			if next == n {
				next = h
			}
			add(v, next)
		}
	default: // wheel: cycle + hub
		for v := 1; v < n; v++ {
			add(v, v%(n-1)+1)
			add(0, v)
		}
	}
	return sm
}

// Store holds the dataset in distributed shared memory: all node features
// concatenated into one table, graph structures on the host (they are tiny
// and batch construction is metadata work, as in the real system).
type Store struct {
	DS   *Dataset
	Comm *wholemem.Comm
	Feat *wholemem.Memory[float32]
}

// NewStore places the dataset's features into the shared memory of machine
// node `node`, charging the setup.
func NewStore(m *sim.Machine, node int, ds *Dataset) (*Store, error) {
	comm, err := wholemem.NewComm(m.NodeDevs(node))
	if err != nil {
		return nil, err
	}
	// Shard on feature-row boundaries so no row straddles two ranks.
	dim := int64(ds.Spec.FeatDim)
	totalRows := int64(len(ds.Feat)) / dim
	parts := int64(comm.Size())
	rowsPerRank := (totalRows + parts - 1) / parts
	sizes := make([]int64, parts)
	left := totalRows
	for r := range sizes {
		n := rowsPerRank
		if n > left {
			n = left
		}
		sizes[r] = n * dim
		left -= n
	}
	feat := wholemem.AllocSharded[float32](comm, sizes)
	feat.FillFrom(ds.Feat)
	return &Store{DS: ds, Comm: comm, Feat: feat}, nil
}

// Options configures the graph-classification trainer.
type Options struct {
	Batch  int // graphs per iteration
	Layers int
	Hidden int
	LR     float64
	Seed   int64
}

func (o Options) normalize() Options {
	if o.Batch == 0 {
		o.Batch = 32
	}
	if o.Layers == 0 {
		o.Layers = 3
	}
	if o.Hidden == 0 {
		o.Hidden = 32
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	return o
}

// Trainer trains a GIN over batches of small graphs on one device.
type Trainer struct {
	Store   *Store
	Dev     *sim.Device
	Encoder *gnn.GIN
	Opts    Options

	opt *nn.Adam
	rng *rand.Rand
}

// New builds the trainer on dev.
func New(store *Store, dev *sim.Device, opts Options) (*Trainer, error) {
	opts = opts.normalize()
	if store.Comm.RankOfDevice(dev) < 0 {
		return nil, fmt.Errorf("graphclass: device %d not in the store's communicator", dev.ID)
	}
	cfg := gnn.Config{
		InDim:   store.DS.Spec.FeatDim,
		Hidden:  opts.Hidden,
		Classes: store.DS.Spec.NumClasses,
		Layers:  opts.Layers,
		Heads:   1,
		Backend: spops.BackendNative,
		Seed:    opts.Seed,
	}
	return &Trainer{
		Store:   store,
		Dev:     dev,
		Encoder: gnn.NewGIN(cfg),
		Opts:    opts,
		opt:     nn.NewAdam(opts.LR),
		rng:     rand.New(rand.NewSource(opts.Seed ^ 0x6c)),
	}, nil
}

// unionBatch builds the disjoint-union block over the selected graphs and
// gathers their feature rows from shared memory (contiguous per graph).
func (t *Trainer) unionBatch(ids []int) (*spops.SubCSR, *tensor.Dense, []int, []int32) {
	ds := t.Store.DS
	var totalN int
	offsets := []int{0}
	for _, g := range ids {
		totalN += ds.Graphs[g].N
		offsets = append(offsets, totalN)
	}
	blk := &spops.SubCSR{NumTargets: totalN, NumNodes: totalN}
	adj := make([][]int32, totalN)
	for i, g := range ids {
		base := int32(offsets[i])
		for _, e := range ds.Graphs[g].Edges {
			a, b := base+e[0], base+e[1]
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	blk.RowPtr = make([]int64, 1, totalN+1)
	for v := 0; v < totalN; v++ {
		blk.Col = append(blk.Col, adj[v]...)
		blk.RowPtr = append(blk.RowPtr, int64(len(blk.Col)))
	}
	blk.DupCount = make([]int32, totalN)
	for _, c := range blk.Col {
		blk.DupCount[c]++
	}

	// Gather features: one contiguous row range per graph.
	dim := ds.Spec.FeatDim
	feat := tensor.New(totalN, dim)
	rows := make([]int64, totalN)
	k := 0
	for _, g := range ids {
		for v := int64(0); v < int64(ds.Graphs[g].N); v++ {
			rows[k] = ds.RowBase[g] + v
			k++
		}
	}
	t.Store.Feat.GatherRows(t.Dev, rows, dim, feat.V, "gather.graphs")

	labels := make([]int32, len(ids))
	for i, g := range ids {
		labels[i] = ds.Labels[g]
	}
	return blk, feat, offsets, labels
}

// forward encodes a union block and returns pooled per-graph logits. Without
// train nothing is recorded.
func (t *Trainer) forward(blk *spops.SubCSR, feat *tensor.Dense, offsets []int, train bool) (*autograd.Tape, *autograd.Var) {
	tp := autograd.NewTape()
	if !train {
		tp.ResetNoGrad()
	}
	t.Encoder.Params().Bind(tp)
	x := tp.Const(feat)
	for l := 0; l < t.Encoder.NumLayers(); l++ {
		x = t.Encoder.ForwardLayer(t.Dev, l, blk, x, l == t.Encoder.NumLayers()-1, train)
	}
	return tp, autograd.SegmentMeanRows(x, offsets)
}

// TrainStep runs one iteration over a random batch of training graphs and
// returns (loss, batch accuracy).
func (t *Trainer) TrainStep() (float64, float64) {
	ids := make([]int, t.Opts.Batch)
	for i := range ids {
		ids[i] = t.Store.DS.Train[t.rng.Intn(len(t.Store.DS.Train))]
	}
	blk, feat, offsets, labels := t.unionBatch(ids)
	tp, logits := t.forward(blk, feat, offsets, true)
	grad := tensor.New(logits.Value.R, logits.Value.C)
	loss := tensor.CrossEntropy(logits.Value, labels, grad)
	acc := tensor.Accuracy(logits.Value, labels)
	tp.Backward(logits, grad)
	t.opt.Step(t.Dev, t.Encoder.Params())
	return loss, acc
}

// Evaluate returns accuracy over the given graph IDs.
func (t *Trainer) Evaluate(ids []int) float64 {
	var correct, total float64
	for off := 0; off < len(ids); off += t.Opts.Batch {
		end := off + t.Opts.Batch
		if end > len(ids) {
			end = len(ids)
		}
		blk, feat, offsets, labels := t.unionBatch(ids[off:end])
		_, logits := t.forward(blk, feat, offsets, false)
		correct += tensor.Accuracy(logits.Value, labels) * float64(end-off)
		total += float64(end - off)
	}
	if total == 0 {
		return 0
	}
	return correct / total
}
