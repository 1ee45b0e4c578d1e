package gnn

import (
	"fmt"
	"math/rand"

	"wholegraph/internal/autograd"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/xrand"
)

// base is what every architecture shares: its hyperparameters, its
// parameters, and the stream that draws its initial weights and then every
// dropout mask.
type base struct {
	cfg Config
	ps  nn.ParamSet
	src *xrand.Source
}

func newBase(cfg Config) base { return base{cfg: cfg, src: xrand.New(cfg.Seed)} }

// Params implements Model.
func (m *base) Params() *nn.ParamSet { return &m.ps }

// Config implements Model.
func (m *base) Config() Config { return m.cfg }

// GCN is a sampled graph convolutional network: every layer averages over
// the closed (self-loop-augmented) sampled neighborhood and applies a
// linear transform; ReLU and dropout between layers.
type GCN struct {
	base
	layers []*nn.Linear
	sl     loopScratch
}

// NewGCN builds a GCN from cfg.
func NewGCN(cfg Config) *GCN {
	m := &GCN{base: newBase(cfg)}
	rng := rand.New(m.src)
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.LayerOutDim(l)
		m.layers = append(m.layers, nn.NewLinear(&m.ps, layerName("gcn", l), in, out, rng))
		in = out
	}
	return m
}

// Name implements Model.
func (m *GCN) Name() string { return "gcn" }

// Forward implements Model.
func (m *GCN) Forward(dev *sim.Device, tp *autograd.Tape, b *Batch, train bool) *autograd.Var {
	return forward(m, dev, tp, b, train)
}

// ForwardLayer implements Model. Parameters must already be bound
// on x's tape.
func (m *GCN) ForwardLayer(dev *sim.Device, l int, blk *spops.SubCSR, x *autograd.Var, last, train bool) *autograd.Var {
	agg := spops.SpMM(dev, m.cfg.Backend, m.sl.loop(x.Tape(), l, blk), x, nil, spops.AggMean)
	out := m.layers[l].Apply(dev, agg)
	if !last {
		out = dropoutVar(dev, charged(dev, autograd.ReLU(out)), m.cfg.Dropout, train, m.src)
	}
	return out
}

// SAGE is GraphSAGE with mean aggregation: each layer concatenates the
// target's own features with the mean of its sampled neighbors and applies
// a linear transform (Hamilton et al.'s W·[h_self || h_neigh]).
type SAGE struct {
	base
	layers []*nn.Linear
}

// NewSAGE builds a GraphSAGE model from cfg.
func NewSAGE(cfg Config) *SAGE {
	m := &SAGE{base: newBase(cfg)}
	rng := rand.New(m.src)
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.LayerOutDim(l)
		m.layers = append(m.layers, nn.NewLinear(&m.ps, layerName("sage", l), 2*in, out, rng))
		in = out
	}
	return m
}

// Name implements Model.
func (m *SAGE) Name() string { return "graphsage" }

// Forward implements Model.
func (m *SAGE) Forward(dev *sim.Device, tp *autograd.Tape, b *Batch, train bool) *autograd.Var {
	return forward(m, dev, tp, b, train)
}

// ForwardLayer implements Model. Parameters must already be bound
// on x's tape.
func (m *SAGE) ForwardLayer(dev *sim.Device, l int, blk *spops.SubCSR, x *autograd.Var, last, train bool) *autograd.Var {
	self := autograd.Rows(x, &blk.NumTargets)
	agg := spops.SpMM(dev, m.cfg.Backend, blk, x, nil, spops.AggMean)
	out := m.layers[l].Apply(dev, autograd.ConcatCols(self, agg))
	if !last {
		out = dropoutVar(dev, charged(dev, autograd.ReLU(out)), m.cfg.Dropout, train, m.src)
	}
	return out
}

// GAT is a multi-head graph attention network. Each head projects the
// inputs, scores every sampled edge with LeakyReLU(a_l·Wh_t + a_r·Wh_s)
// (a g-SDDMM), normalizes scores per target with a segment softmax, and
// aggregates with an edge-weighted g-SpMM. Hidden layers concatenate the
// heads; the output layer averages them.
type GAT struct {
	base
	proj  [][]*nn.Linear // [layer][head]
	attnL [][]*nn.Param  // [layer][head] a_l, shape [headDim x 1]
	attnR [][]*nn.Param
	sl    loopScratch
}

// NewGAT builds a GAT from cfg; cfg.Hidden must be a positive multiple of
// cfg.Heads (Check).
func NewGAT(cfg Config) *GAT {
	if err := checkGAT(cfg); err != nil {
		panic(err.Error())
	}
	m := &GAT{base: newBase(cfg)}
	rng := rand.New(m.src)
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		headDim := cfg.Hidden / cfg.Heads
		if l == cfg.Layers-1 {
			headDim = cfg.Classes // output heads are averaged
		}
		var projs []*nn.Linear
		var als, ars []*nn.Param
		for h := 0; h < cfg.Heads; h++ {
			name := layerName("gat", l) + headName(h)
			projs = append(projs, nn.NewLinear(&m.ps, name+".proj", in, headDim, rng))
			als = append(als, m.ps.New(name+".al", tensor.Glorot(headDim, 1, rng)))
			ars = append(ars, m.ps.New(name+".ar", tensor.Glorot(headDim, 1, rng)))
		}
		m.proj = append(m.proj, projs)
		m.attnL = append(m.attnL, als)
		m.attnR = append(m.attnR, ars)
		in = cfg.LayerOutDim(l)
	}
	return m
}

// Name implements Model.
func (m *GAT) Name() string { return "gat" }

// Forward implements Model.
func (m *GAT) Forward(dev *sim.Device, tp *autograd.Tape, b *Batch, train bool) *autograd.Var {
	return forward(m, dev, tp, b, train)
}

// ForwardLayer implements Model. Parameters must already be bound
// on x's tape.
func (m *GAT) ForwardLayer(dev *sim.Device, l int, rawBlk *spops.SubCSR, x *autograd.Var, last, train bool) *autograd.Var {
	blk := m.sl.loop(x.Tape(), l, rawBlk)
	var headsOut *autograd.Var
	for h := 0; h < m.cfg.Heads; h++ {
		hproj := m.proj[l][h].Apply(dev, x) // [nodes x headDim]
		ht := autograd.Rows(hproj, &blk.NumTargets)
		sl := autograd.MatMul(ht, m.attnL[l][h].Var())    // [targets x 1]
		sr := autograd.MatMul(hproj, m.attnR[l][h].Var()) // [nodes x 1]
		e := spops.EdgeLeakyReLU(dev, spops.EdgeScore(dev, blk, sl, sr), 0.2)
		alpha := spops.SegmentSoftmax(dev, blk, e)
		out := spops.SpMM(dev, m.cfg.Backend, blk, hproj, alpha, spops.AggSum)
		switch {
		case headsOut == nil:
			headsOut = out
		case last:
			headsOut = autograd.Add(headsOut, out) // average later
		default:
			headsOut = autograd.ConcatCols(headsOut, out)
		}
	}
	if last {
		return autograd.Scale(headsOut, 1/float32(m.cfg.Heads))
	}
	relu := charged(dev, autograd.ReLU(headsOut))
	return dropoutVar(dev, relu, m.cfg.Dropout, train, m.src)
}

func checkGAT(cfg Config) error {
	if cfg.Heads <= 0 || cfg.Hidden <= 0 || cfg.Hidden%cfg.Heads != 0 {
		return fmt.Errorf("gnn: GAT hidden size %d is not a positive multiple of %d heads", cfg.Hidden, cfg.Heads)
	}
	return nil
}

// builders maps every architecture name New accepts to its constructor.
var builders = map[string]func(Config) Model{
	"gcn":       func(cfg Config) Model { return NewGCN(cfg) },
	"graphsage": func(cfg Config) Model { return NewSAGE(cfg) },
	"sage":      func(cfg Config) Model { return NewSAGE(cfg) },
	"gat":       func(cfg Config) Model { return NewGAT(cfg) },
	"gin":       func(cfg Config) Model { return NewGIN(cfg) },
}

// Check reports why New would refuse arch and cfg: an unknown architecture,
// a dropout probability that is NaN or outside [0, 1], a hidden size below
// 1, or a GAT whose hidden size is not a positive multiple of its heads.
// Callers that take either from outside the program check before building.
func Check(arch string, cfg Config) error {
	if builders[arch] == nil {
		return fmt.Errorf("gnn: unknown architecture %q", arch)
	}
	if !(cfg.Dropout >= 0 && cfg.Dropout <= 1) { // NaN fails both
		return fmt.Errorf("gnn: dropout probability %v is not in [0, 1]", cfg.Dropout)
	}
	if cfg.Hidden <= 0 {
		return fmt.Errorf("gnn: hidden size %d is not positive", cfg.Hidden)
	}
	if arch == "gat" {
		return checkGAT(cfg)
	}
	return nil
}

// New constructs a model by architecture name ("gcn", "graphsage", "gat",
// "gin"). It panics where Check returns an error.
func New(arch string, cfg Config) Model {
	if err := Check(arch, cfg); err != nil {
		panic(err.Error())
	}
	return builders[arch](cfg)
}

func layerName(arch string, l int) string { return arch + "." + string(rune('0'+l)) }
func headName(h int) string               { return ".h" + string(rune('0'+h)) }

// GIN is a Graph Isomorphism Network layer stack: each layer computes
// MLP((1+eps)·h_v + sum over sampled neighbors), with a learnable eps per
// layer (Xu et al. 2019). It is not part of the paper's evaluation but
// demonstrates that the op set (sum-aggregation g-SpMM + dense layers)
// supports architectures beyond the evaluated three.
type GIN struct {
	base
	mlp1 []*nn.Linear
	mlp2 []*nn.Linear
	eps  []*nn.Param
}

// NewGIN builds a GIN from cfg.
func NewGIN(cfg Config) *GIN {
	m := &GIN{base: newBase(cfg)}
	rng := rand.New(m.src)
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.LayerOutDim(l)
		name := layerName("gin", l)
		m.mlp1 = append(m.mlp1, nn.NewLinear(&m.ps, name+".mlp1", in, cfg.Hidden, rng))
		m.mlp2 = append(m.mlp2, nn.NewLinear(&m.ps, name+".mlp2", cfg.Hidden, out, rng))
		m.eps = append(m.eps, m.ps.New(name+".eps", tensor.New(1, 1)))
		in = out
	}
	return m
}

// Name implements Model.
func (m *GIN) Name() string { return "gin" }

// Forward implements Model.
func (m *GIN) Forward(dev *sim.Device, tp *autograd.Tape, b *Batch, train bool) *autograd.Var {
	return forward(m, dev, tp, b, train)
}

// ForwardLayer implements Model.
func (m *GIN) ForwardLayer(dev *sim.Device, l int, blk *spops.SubCSR, x *autograd.Var, last, train bool) *autograd.Var {
	agg := spops.SpMM(dev, m.cfg.Backend, blk, x, nil, spops.AggSum)
	self := autograd.Rows(x, &blk.NumTargets)
	// (1+eps)*self + agg, with eps a learnable scalar.
	scaled := autograd.ScaleByScalarPlusOne(self, m.eps[l].Var())
	h := autograd.Add(scaled, agg)
	out := m.mlp2[l].Apply(dev, autograd.ReLU(m.mlp1[l].Apply(dev, h)))
	if !last {
		out = dropoutVar(dev, charged(dev, autograd.ReLU(out)), m.cfg.Dropout, train, m.src)
	}
	return out
}
