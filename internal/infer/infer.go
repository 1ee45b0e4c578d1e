// Package infer implements full-graph layer-wise inference over the
// multi-GPU shared-memory store. The paper notes that WholeGraph's ops
// serve inference as well as training ("it does not require collective
// communication", §I); this is the standard offline-inference pattern: each
// GNN layer is applied to every node exactly once, with the intermediate
// embeddings living in distributed shared memory so every rank reads its
// neighbors' embeddings through peer access — no sampling variance, no
// redundant recomputation of shared neighborhoods.
package infer

import (
	"fmt"

	"wholegraph/internal/autograd"
	"wholegraph/internal/core"
	"wholegraph/internal/gnn"
	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/tensor"
	"wholegraph/internal/unique"
	"wholegraph/internal/wholemem"
)

// Engine runs repeated full-graph inference over one store and model. The
// per-layer shared embedding tables are allocated once at construction
// (charging the one-time IPC setup, like the training store's §III-B
// setup); each Run then only pays propagation.
type Engine struct {
	Store *core.Store
	Model gnn.Model
	// tables[l] holds the output embeddings of layer l, sharded like the
	// node partition.
	tables []*wholemem.Memory[float32]
	// replicas[r] is rank r's private copy of Model: forwarding binds the
	// parameter set to a tape, so concurrently forwarding ranks cannot
	// share one model. replicas[0] aliases Model; the rest are refreshed
	// from Model's weights at the start of every Run.
	replicas []gnn.Model
	// scratch[r] is rank r's reusable workspace (dedup table, tape arena,
	// block and index buffers), owned by rank r's goroutine inside
	// sim.RunParallel, so repeated Runs allocate almost nothing.
	scratch []*rankScratch
	// Chunks, when > 1, splits each rank's local targets into that many
	// pieces per layer and pipelines their input gathers on the device's
	// copy stream against the previous chunk's forward/scatter compute —
	// the inference analogue of the training loader's prefetch. Outputs
	// are bit-identical to the single-block path (per-target math is
	// unchanged; only the dedup scope narrows to a chunk, which trades
	// some cross-chunk dedup for overlap). 0 or 1 selects the sequential
	// single-block path.
	Chunks int
}

// WithChunks sets the pipelined chunk count and returns the engine. Values
// below 1 clamp to 1 (the sequential single-block path), so a computed
// chunk count that underflows cannot arm a nonsensical configuration.
func (e *Engine) WithChunks(n int) *Engine {
	if n < 1 {
		n = 1
	}
	e.Chunks = n
	return e
}

// rankScratch holds one rank's per-layer working set across Run calls.
type rankScratch struct {
	ded       *unique.Deduper
	tape      *autograd.Tape
	targets   []graph.GlobalID
	neighbors []graph.GlobalID
	rowPtr    []int64
	blk       spops.SubCSR
	rows      []int64
	outRows   []int64
	collect   []float32
	// chunks is the per-chunk working set of the pipelined path; each
	// chunk's block, dedup table and gathered input must stay alive until
	// its forward, so they cannot share one buffer.
	chunks []*chunkScratch
}

// chunkScratch is one chunk's slice of the pipelined working set.
type chunkScratch struct {
	ded       *unique.Deduper
	targets   []graph.GlobalID
	neighbors []graph.GlobalID
	rowPtr    []int64
	blk       spops.SubCSR
	rows      []int64
	lo, hi    int64
	x         *tensor.Dense // tape-owned; valid within one layer
	// blkReady (compute) gates the chunk's gather; gatherDone (copy)
	// gates its forward.
	blkReady   sim.Event
	gatherDone sim.Event
}

func (sc *rankScratch) ensureChunks(n int) {
	for len(sc.chunks) < n {
		sc.chunks = append(sc.chunks, &chunkScratch{ded: unique.NewDeduper()})
	}
}

// NewEngine validates the model against the store and allocates the
// intermediate embedding tables.
func NewEngine(store *core.Store, model gnn.Model) (*Engine, error) {
	pg := store.PG
	if pg.PagedTopo() != nil {
		return nil, fmt.Errorf("infer: layer-wise inference walks full neighbor lists shard-by-shard and requires a materialized column array (not the paged topology store)")
	}
	if pg.Features() == nil {
		return nil, fmt.Errorf("infer: store has no node features")
	}
	cfg := model.Config()
	if cfg.InDim != pg.Dim {
		return nil, fmt.Errorf("infer: model input dim %d != feature dim %d", cfg.InDim, pg.Dim)
	}
	e := &Engine{Store: store, Model: model}
	for l := 0; l < model.NumLayers(); l++ {
		e.tables = append(e.tables,
			wholemem.AllocSharded[float32](store.Comm, featShardSizes(pg, cfg.LayerOutDim(l))))
	}
	e.replicas = make([]gnn.Model, store.Comm.Size())
	e.replicas[0] = model
	for r := 1; r < len(e.replicas); r++ {
		e.replicas[r] = gnn.New(model.Name(), cfg)
	}
	e.scratch = make([]*rankScratch, store.Comm.Size())
	for r := range e.scratch {
		e.scratch[r] = &rankScratch{
			ded:  unique.NewDeduper(),
			tape: autograd.NewTapeArena(tensor.NewArena()),
		}
	}
	return e, nil
}

// FullGraph computes the model's final-layer output for every node of the
// store's graph and returns it as an [N x classes] matrix in original node
// ID order. It is NewEngine + Run; callers embedding repeatedly should keep
// the Engine to amortize the table setup.
func FullGraph(store *core.Store, model gnn.Model) (*tensor.Dense, error) {
	e, err := NewEngine(store, model)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Run performs one layer-wise propagation: each rank computes the rows of
// its own hash partition, reading input embeddings (its nodes' full
// neighborhoods) from the previous layer's shared table; ranks synchronize
// between layers. All aggregation, gathers and scatters are charged to the
// device clocks. Within a layer, the ranks run on real goroutines
// (sim.RunParallel): each owns its device and model replica, reads the
// previous layer's table (frozen between barriers), and scatters a disjoint
// row range of the next table.
func (e *Engine) Run() (*tensor.Dense, error) {
	pg := e.Store.PG
	devs := e.Store.Comm.Devs
	for r := 1; r < len(e.replicas); r++ {
		e.replicas[r].Params().CopyFrom(e.Model.Params())
	}

	// Layer 0 reads the stored features (possibly the paged store); each
	// subsequent layer reads the shared embedding table the previous layer
	// wrote, wrapped in the same FeatureSource view.
	cur := pg.Features()
	curDim := pg.Dim
	for l := 0; l < e.Model.NumLayers(); l++ {
		last := l == e.Model.NumLayers()-1
		outDim := e.Model.Config().LayerOutDim(l)
		out := e.tables[l]
		in, inDim := cur, curDim
		sim.RunParallel(len(devs), func(r int) {
			dev := devs[r]
			model := e.replicas[r]
			sc := e.scratch[r]
			tp := sc.tape
			tp.ResetNoGrad()
			if e.Chunks > 1 {
				e.runRankChunked(dev, model, sc, l, last, r, in, inDim, out, outDim)
				return
			}
			blk, uniq := sc.rankBlock(dev, pg, r)
			// Gather the block's input embeddings from the shared table.
			if cap(sc.rows) < len(uniq) {
				sc.rows = make([]int64, len(uniq))
			}
			rows := sc.rows[:len(uniq)]
			for i, gid := range uniq {
				rows[i] = pg.FeatRow(gid)
			}
			x := tp.NewTensor(len(uniq), inDim)
			in.GatherRows(dev, rows, inDim, x.V, "infer.gather")

			model.Params().Bind(tp)
			y := model.ForwardLayer(dev, l, blk, tp.Const(x), last, false)

			// Scatter the rank's rows into the next shared table; local
			// rows are contiguous, so this is a streaming store.
			if cap(sc.outRows) < blk.NumTargets {
				sc.outRows = make([]int64, blk.NumTargets)
			}
			outRows := sc.outRows[:blk.NumTargets]
			base := pg.FeatRow(graph.MakeGlobalID(r, 0))
			for i := range outRows {
				outRows[i] = base + int64(i)
			}
			out.ScatterRows(dev, outRows, outDim, y.Value.V, "infer.scatter")
		})
		sim.Barrier(devs)
		cur = graph.MemFeatures(out, pg.N, outDim)
		curDim = outDim
	}

	// Collect into original node-ID order on the host: each rank reads its
	// own contiguous shard of the final table (a charged streaming read)
	// and de-permutes it into its nodes' original-ID rows. The row sets
	// are disjoint across ranks, so the parallel extraction is bit-equal
	// to the serial one.
	res := tensor.New(int(pg.N), curDim)
	final := e.tables[e.Model.NumLayers()-1]
	sim.RunParallel(len(devs), func(r int) {
		dev := devs[r]
		sc := e.scratch[r]
		localN := pg.LocalCount(r)
		need := int(localN) * curDim
		if cap(sc.collect) < need {
			sc.collect = make([]float32, need)
		}
		buf := sc.collect[:need]
		final.ReadRange(dev, final.ShardStart(r), int64(need), buf, "infer.collect")
		for li := int64(0); li < localN; li++ {
			copy(res.Row(int(pg.Orig[r][li])), buf[li*int64(curDim):(li+1)*int64(curDim)])
		}
	})
	sim.Barrier(devs)
	return res, nil
}

// runRankChunked is the pipelined per-rank layer body: the rank's local
// targets are split into e.Chunks even pieces; all chunk blocks are built
// first on the compute stream (each publishing a ready event), the input
// gathers are issued in order on the copy stream (each waiting for its
// block), and the forward/scatter loop then consumes the chunks, stalling
// only on a chunk's residual gather time. Gather c+1 thereby overlaps
// forward/scatter c, and the first gather overlaps the remaining block
// builds.
func (e *Engine) runRankChunked(dev *sim.Device, model gnn.Model, sc *rankScratch,
	l int, last bool, r int, in graph.FeatureSource, inDim int,
	out *wholemem.Memory[float32], outDim int) {
	pg := e.Store.PG
	tp := sc.tape
	localN := pg.LocalCount(r)
	nChunks := e.Chunks
	if int64(nChunks) > localN {
		nChunks = int(localN)
	}
	if nChunks < 1 {
		nChunks = 1
	}
	sc.ensureChunks(nChunks)
	model.Params().Bind(tp)
	rp := pg.RowPtr.Shard(r)
	colShard := pg.Col.Shard(r)

	// Phase 1 (compute stream): dedup every chunk's neighborhood into its
	// own block.
	for c := 0; c < nChunks; c++ {
		cs := sc.chunks[c]
		cs.lo = localN * int64(c) / int64(nChunks)
		cs.hi = localN * int64(c+1) / int64(nChunks)
		n := cs.hi - cs.lo
		if cap(cs.targets) < int(n) {
			cs.targets = make([]graph.GlobalID, n)
		}
		targets := cs.targets[:n]
		for i := int64(0); i < n; i++ {
			targets[i] = graph.MakeGlobalID(r, cs.lo+i)
		}
		eLo, eHi := rp[cs.lo], rp[cs.hi]
		if cap(cs.neighbors) < int(eHi-eLo) {
			cs.neighbors = make([]graph.GlobalID, eHi-eLo)
		}
		neighbors := cs.neighbors[:eHi-eLo]
		for i, col := range colShard[eLo:eHi] {
			neighbors[i] = graph.GlobalID(col)
		}
		uq := cs.ded.AppendUnique(dev, targets, neighbors)
		cs.rowPtr = cs.rowPtr[:0]
		for i := cs.lo; i <= cs.hi; i++ {
			cs.rowPtr = append(cs.rowPtr, rp[i]-eLo)
		}
		cs.blk = spops.SubCSR{
			NumTargets: int(n),
			NumNodes:   len(uq.Unique),
			RowPtr:     cs.rowPtr,
			Col:        uq.NeighborSubID,
			DupCount:   uq.DupCount,
		}
		if cap(cs.rows) < len(uq.Unique) {
			cs.rows = make([]int64, len(uq.Unique))
		}
		rows := cs.rows[:len(uq.Unique)]
		for i, gid := range uq.Unique {
			rows[i] = pg.FeatRow(gid)
		}
		cs.blkReady = dev.RecordEvent()
	}

	// Phase 2 (copy stream): gather each chunk's input embeddings as soon
	// as its block exists.
	prev := dev.SetStream(sim.StreamCopy)
	for c := 0; c < nChunks; c++ {
		cs := sc.chunks[c]
		dev.WaitEvent(cs.blkReady, "wait.block")
		cs.x = tp.NewTensor(cs.blk.NumNodes, inDim)
		in.GatherRows(dev, cs.rows[:cs.blk.NumNodes], inDim, cs.x.V, "infer.gather")
		cs.gatherDone = dev.RecordEvent()
	}
	dev.SetStream(prev)

	// Phase 3 (compute stream): forward and scatter chunk by chunk,
	// stalling only on residual gather time.
	for c := 0; c < nChunks; c++ {
		cs := sc.chunks[c]
		dev.WaitEvent(cs.gatherDone, "wait.gather")
		y := model.ForwardLayer(dev, l, &cs.blk, tp.Const(cs.x), last, false)
		n := int(cs.hi - cs.lo)
		if cap(sc.outRows) < n {
			sc.outRows = make([]int64, n)
		}
		outRows := sc.outRows[:n]
		base := pg.FeatRow(graph.MakeGlobalID(r, 0))
		for i := range outRows {
			outRows[i] = base + cs.lo + int64(i)
		}
		out.ScatterRows(dev, outRows, outDim, y.Value.V, "infer.scatter")
	}
}

// featShardSizes returns per-rank element counts for an [N x dim] embedding
// table sharded like the node partition.
func featShardSizes(pg *graph.Partitioned, dim int) []int64 {
	sizes := make([]int64, pg.Comm.Size())
	for r := range sizes {
		sizes[r] = pg.LocalCount(r) * int64(dim)
	}
	return sizes
}

// rankBlock builds the full-neighborhood block of rank r: targets are the
// rank's local nodes in local order, neighbors are their complete edge
// lists, deduplicated with AppendUnique so the block indexes a compact
// input set. The block and ID list live in the scratch and are valid until
// the next call.
func (sc *rankScratch) rankBlock(dev *sim.Device, pg *graph.Partitioned, r int) (*spops.SubCSR, []graph.GlobalID) {
	localN := pg.LocalCount(r)
	if cap(sc.targets) < int(localN) {
		sc.targets = make([]graph.GlobalID, localN)
	}
	targets := sc.targets[:localN]
	for i := int64(0); i < localN; i++ {
		targets[i] = graph.MakeGlobalID(r, i)
	}
	rp := pg.RowPtr.Shard(r)
	colShard := pg.Col.Shard(r)
	if cap(sc.neighbors) < len(colShard) {
		sc.neighbors = make([]graph.GlobalID, len(colShard))
	}
	neighbors := sc.neighbors[:len(colShard)]
	for i, c := range colShard {
		neighbors[i] = graph.GlobalID(c)
	}
	uq := sc.ded.AppendUnique(dev, targets, neighbors)
	sc.rowPtr = append(sc.rowPtr[:0], rp...)
	sc.blk = spops.SubCSR{
		NumTargets: int(localN),
		NumNodes:   len(uq.Unique),
		RowPtr:     sc.rowPtr,
		Col:        uq.NeighborSubID,
		DupCount:   uq.DupCount,
	}
	return &sc.blk, uq.Unique
}
