package bench

import (
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gather"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/wholemem"
)

// Table5Row reports the average epoch time of one dataset+model for the
// three frameworks and the speedups of WholeGraph over the baselines.
type Table5Row struct {
	Dataset, Model string
	EpochTime      map[Framework]float64
	Timing         map[Framework]core.Timing
	SpeedupVsPyG   float64
	SpeedupVsDGL   float64
}

// Table5 reproduces Table V (and feeds Figure 9): average epoch time for
// GCN/GraphSAGE/GAT on the four datasets under PyG, DGL and WholeGraph.
func Table5(cfg Config) ([]Table5Row, error) {
	cfg = cfg.normalize()
	specs := cfg.datasets()
	if cfg.Quick {
		specs = specs[:2] // products + papers100M keep the comparison shape
	}
	cfg.printf("Table V: average epoch time (virtual seconds at scale %g) and speedups\n", cfg.Scale)
	cfg.printf("%-22s %-10s %12s %12s %12s %10s %10s\n",
		"Dataset", "Model", "PyG", "DGL", "Ours", "vs PyG", "vs DGL")
	// One cell per dataset x model, fanned out under cfg.Parallel; each
	// cell times the three frameworks on fresh machines.
	type t5cell struct {
		ds   *dataset.Dataset
		arch string
	}
	var cells []t5cell
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, arch := range []string{"gcn", "graphsage", "gat"} {
			cells = append(cells, t5cell{ds, arch})
		}
	}
	rows := make([]Table5Row, len(cells))
	err := cfg.runCells(len(cells), func(ci int, tot *Totals) error {
		c := cells[ci]
		row := Table5Row{
			Dataset: c.ds.Spec.Name, Model: c.arch,
			EpochTime: map[Framework]float64{},
			Timing:    map[Framework]core.Timing{},
		}
		for _, fw := range []Framework{FwPyG, FwDGL, FwWholeGraph} {
			tr, err := newTrainer(fw, 1, c.ds, cfg.trainOpts(c.arch))
			if err != nil {
				return err
			}
			st := tr.RunEpoch()
			tot.Fold(tr)
			row.EpochTime[fw] = st.EpochTime
			row.Timing[fw] = st.Timing
		}
		row.SpeedupVsPyG = row.EpochTime[FwPyG] / row.EpochTime[FwWholeGraph]
		row.SpeedupVsDGL = row.EpochTime[FwDGL] / row.EpochTime[FwWholeGraph]
		rows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		cfg.printf("%-22s %-10s %12s %12s %12s %9.2fx %9.2fx\n",
			row.Dataset, row.Model,
			fmtSeconds(row.EpochTime[FwPyG]), fmtSeconds(row.EpochTime[FwDGL]),
			fmtSeconds(row.EpochTime[FwWholeGraph]), row.SpeedupVsPyG, row.SpeedupVsDGL)
	}
	return rows, nil
}

// Fig7Point is one epoch of the validation-accuracy comparison.
type Fig7Point struct {
	Epoch  int
	DGLAcc float64
	WGAcc  float64
}

// Fig7 reproduces Figure 7: DGL and WholeGraph validation accuracy on
// ogbn-products training GraphSAGE, epoch by epoch. Parity holds because
// the training math is shared; only the data path differs.
func Fig7(cfg Config) ([]Fig7Point, error) {
	cfg = cfg.normalize()
	ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	evalIDs, evalLabels := evalSet(cfg, ds, 7)
	opts := cfg.accuracyOpts("graphsage")
	dgl, err := newTrainer(FwDGL, 1, ds, opts)
	if err != nil {
		return nil, err
	}
	defer cfg.Totals.Fold(dgl)
	wg, err := newTrainer(FwWholeGraph, 1, ds, opts)
	if err != nil {
		return nil, err
	}
	defer cfg.Totals.Fold(wg)
	cfg.printf("Figure 7: validation accuracy per epoch (GraphSAGE, ogbn-products)\n")
	cfg.printf("%6s %10s %12s\n", "epoch", "DGL", "WholeGraph")
	var pts []Fig7Point
	for e := 1; e <= cfg.Epochs; e++ {
		dgl.RunEpoch()
		wg.RunEpoch()
		p := Fig7Point{Epoch: e}
		if p.DGLAcc, err = dgl.EvaluateWithLabels(evalIDs, evalLabels); err != nil {
			return nil, err
		}
		if p.WGAcc, err = wg.EvaluateWithLabels(evalIDs, evalLabels); err != nil {
			return nil, err
		}
		pts = append(pts, p)
		cfg.printf("%6d %9.2f%% %11.2f%%\n", e, 100*p.DGLAcc, 100*p.WGAcc)
	}
	return pts, nil
}

// Fig8Point is one segment size of the random-gather bandwidth sweep.
type Fig8Point struct {
	SegBytes  int
	AlgoBWGBs float64
	BusBWGBs  float64
}

// Fig8 reproduces Figure 8: every GPU concurrently gathers random segments
// from memory striped across all 8 GPUs; bandwidth rises with segment size
// and saturates near the NVLink limit once segments pass ~128 bytes.
func Fig8(cfg Config) ([]Fig8Point, error) {
	cfg = cfg.normalize()
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		return nil, err
	}
	// Paper: 128 GB pool, 4 GB gathered per GPU. Scaled to keep host
	// memory reasonable while exercising the identical code path; the
	// per-GPU volume stays large enough to amortize the kernel launch as
	// the paper's 4 GB does.
	poolBytes := int64(512 << 20)
	perGPUBytes := int64(64 << 20)
	if cfg.Quick {
		poolBytes, perGPUBytes = 64<<20, 8<<20
	}
	mem := wholemem.Alloc[float32](comm, poolBytes/4)
	rng := cfg.seededRand(8)

	cfg.printf("Figure 8: random gather bandwidth vs segment size\n")
	cfg.printf("%10s %14s %14s\n", "seg (B)", "AlgoBW GB/s", "BusBW GB/s")
	var pts []Fig8Point
	for _, seg := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		m.Reset()
		dim := seg / 4
		end := 0.0
		for _, dev := range m.NodeDevs(0) {
			nRows := int(perGPUBytes) / seg
			rows := make([]int64, nRows)
			maxRow := mem.Len() / int64(dim)
			for i := range rows {
				rows[i] = rng.Int63n(maxRow)
			}
			dst := make([]float32, nRows*dim)
			mem.GatherRows(dev, rows, dim, dst, "fig8")
			if dev.Now() > end {
				end = dev.Now()
			}
		}
		algo := float64(perGPUBytes) / end / 1e9
		p := Fig8Point{SegBytes: seg, AlgoBWGBs: algo, BusBWGBs: algo * 7 / 8}
		pts = append(pts, p)
		cfg.printf("%10d %14.1f %14.1f\n", p.SegBytes, p.AlgoBWGBs, p.BusBWGBs)
	}
	return pts, nil
}

// Fig9 reproduces Figure 9, the epoch-time breakdown: it reuses the Table V
// measurement on ogbn-products and ogbn-papers100M and prints the
// sampling / gathering / training split per framework and model.
func Fig9(cfg Config) ([]Table5Row, error) {
	cfg = cfg.normalize()
	saved := cfg.W
	sub := cfg
	sub.W = nil
	sub.Quick = true // products + papers only, as the figure shows
	rows, err := Table5(sub)
	if err != nil {
		return nil, err
	}
	cfg.W = saved
	cfg.printf("Figure 9: epoch time breakdown (sample / gather / train)\n")
	cfg.printf("%-22s %-10s %-12s %12s %12s %12s\n",
		"Dataset", "Model", "Framework", "Sample", "Gather", "Train")
	for _, r := range rows {
		for _, fw := range []Framework{FwPyG, FwDGL, FwWholeGraph} {
			tm := r.Timing[fw]
			cfg.printf("%-22s %-10s %-12s %12s %12s %12s\n",
				r.Dataset, r.Model, fw,
				fmtSeconds(tm.Sample), fmtSeconds(tm.Gather), fmtSeconds(tm.Train))
		}
	}
	return rows, nil
}

// Fig10Row compares the two gather implementations on one dataset.
type Fig10Row struct {
	Dataset        string
	SharedTime     float64
	DistTime       float64
	Speedup        float64
	SharedBusBWGBs float64
	// AlltoAllvBusBWGBs is the bandwidth of the NCCL implementation's
	// feature exchange step alone (the paper's "bandwidth of the final
	// alltoallv").
	AlltoAllvBusBWGBs float64
}

// Fig10 reproduces Figure 10: shared-memory gather vs NCCL-based
// distributed gather on feature workloads taken from real sampled batches
// of each dataset.
func Fig10(cfg Config) ([]Fig10Row, error) {
	cfg = cfg.normalize()
	cfg.printf("Figure 10: gathering features, shared-memory vs NCCL-based\n")
	cfg.printf("%-22s %10s %10s %9s %12s %14s\n",
		"Dataset", "ours", "NCCL", "speedup", "ours BusBW", "alltoallv BusBW")
	var rows []Fig10Row
	for _, spec := range cfg.datasets() {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		m := sim.NewMachine(sim.DGXA100(1))
		store, err := core.NewStore(m, 0, ds)
		if err != nil {
			return nil, err
		}
		// Build a realistic gather workload: the input node set of one
		// sampled batch per GPU.
		opts := cfg.trainOpts("graphsage")
		dim := ds.Spec.FeatDim
		var reqs []*gather.Request
		var totalBytes float64
		for i, dev := range m.NodeDevs(0) {
			// Size each GPU's request from a real sampled batch's input
			// node set; the row IDs themselves are uniform like the hash
			// partition makes them.
			ld := core.NewLoader(store, dev, opts.Fanouts, cfg.Seed+int64(i))
			n := opts.Batch
			if n > len(ds.Train) {
				n = len(ds.Train)
			}
			b, _ := ld.BuildBatch(ds.Train[:n])
			reqs = append(reqs, randomWorkload(cfg, store, dev, b.Feat.R, dim))
			totalBytes += float64(b.Feat.R * dim * 4)
		}
		m.Reset()
		tShared := gather.SharedMem(store.PG.Feat, dim, reqs)
		m.Reset()
		// Reuse the same requests (and their Out buffers) for the
		// distributed leg: Reset repoints them without reallocating.
		for _, r := range reqs {
			r.Reset(r.Rows, dim)
		}
		_, bd := gather.DistributedWithBreakdown(store.PG.Feat, dim, reqs)

		perGPU := totalBytes / 8
		row := Fig10Row{
			Dataset:           spec.Name,
			SharedTime:        tShared,
			DistTime:          bd.Total(),
			Speedup:           bd.Total() / tShared,
			SharedBusBWGBs:    perGPU / tShared / 1e9 * 7 / 8,
			AlltoAllvBusBWGBs: perGPU / bd.AlltoAllvTime() / 1e9 * 7 / 8,
		}
		rows = append(rows, row)
		cfg.printf("%-22s %10s %10s %8.2fx %11.1f %13.1f\n",
			row.Dataset, fmtSeconds(row.SharedTime), fmtSeconds(row.DistTime),
			row.Speedup, row.SharedBusBWGBs, row.AlltoAllvBusBWGBs)
	}
	return rows, nil
}

// randomWorkload builds a gather request of n random feature rows.
func randomWorkload(cfg Config, store *core.Store, dev *sim.Device, n, dim int) *gather.Request {
	rng := cfg.seededRand(int64(dev.ID) + 100)
	rows := make([]int64, n)
	maxRow := store.PG.Feat.Len() / int64(dim)
	for i := range rows {
		rows[i] = rng.Int63n(maxRow)
	}
	return gather.NewRequest(dev, rows, dim)
}

// Fig11Row reports the breakdown of WholeGraph with third-party layer
// backends (Figure 11).
type Fig11Row struct {
	Dataset, Model string
	Timing         map[string]core.Timing // backend name -> breakdown
	EpochTime      map[string]float64
	SpeedupVsDGL   float64 // native vs dgl-layers
	SpeedupVsPyG   float64 // native vs pyg-layers
}

// Fig11 reproduces Figure 11: the WholeGraph pipeline (GPU sampling +
// shared-memory gather) combined with native, DGL-style, and PyG-style GNN
// layer implementations. Sampling/gathering stay flat; only training time
// moves, by up to ~1.3x (DGL layers) and ~2.4x (PyG layers).
func Fig11(cfg Config) ([]Fig11Row, error) {
	cfg = cfg.normalize()
	specs := []dataset.Spec{
		dataset.OgbnProducts.Scaled(cfg.Scale),
		dataset.OgbnPapers100M.Scaled(cfg.Scale),
	}
	backends := []spops.Backend{spops.BackendNative, spops.BackendDGL, spops.BackendPyG}
	cfg.printf("Figure 11: WholeGraph with native vs third-party GNN layers\n")
	cfg.printf("%-22s %-10s %-12s %12s %12s %12s %12s\n",
		"Dataset", "Model", "Layers", "Sample", "Gather", "Train", "Epoch")
	var rows []Fig11Row
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, arch := range []string{"gcn", "graphsage", "gat"} {
			row := Fig11Row{
				Dataset: spec.Name, Model: arch,
				Timing:    map[string]core.Timing{},
				EpochTime: map[string]float64{},
			}
			for _, be := range backends {
				opts := cfg.trainOpts(arch)
				opts.Backend = be
				tr, err := newTrainer(FwWholeGraph, 1, ds, opts)
				if err != nil {
					return nil, err
				}
				st := tr.RunEpoch()
				cfg.Totals.Fold(tr)
				row.Timing[be.String()] = st.Timing
				row.EpochTime[be.String()] = st.EpochTime
				cfg.printf("%-22s %-10s %-12s %12s %12s %12s %12s\n",
					spec.Name, arch, be,
					fmtSeconds(st.Timing.Sample), fmtSeconds(st.Timing.Gather),
					fmtSeconds(st.Timing.Train), fmtSeconds(st.EpochTime))
			}
			native := row.EpochTime[spops.BackendNative.String()]
			row.SpeedupVsDGL = row.EpochTime[spops.BackendDGL.String()] / native
			row.SpeedupVsPyG = row.EpochTime[spops.BackendPyG.String()] / native
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig12Series is the GPU utilization timeline of one framework.
type Fig12Series struct {
	Framework Framework
	// Util holds the busy fraction of each time bucket across the traced
	// training window.
	Util []float64
	Mean float64
}

// Fig12 reproduces Figure 12: GPU utilization over time. The baselines
// oscillate (idle while the CPU prepares data), WholeGraph stays >= 95%.
func Fig12(cfg Config) ([]Fig12Series, error) {
	cfg = cfg.normalize()
	ds, err := generate(dataset.OgbnPapers100M.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	const buckets = 40
	cfg.printf("Figure 12: GPU utilization during training (%d buckets over the window)\n", buckets)
	var out []Fig12Series
	for _, fw := range []Framework{FwPyG, FwDGL, FwWholeGraph} {
		opts := cfg.trainOpts("graphsage")
		opts.Trace = true
		tr, err := newTrainer(fw, 1, ds, opts)
		if err != nil {
			return nil, err
		}
		dev := tr.Worker0Device()
		t0 := dev.Now()
		epochs := 2
		for e := 0; e < epochs; e++ {
			tr.RunEpoch()
		}
		cfg.Totals.Fold(tr)
		u := sim.Utilization(dev.Trace(), t0, dev.Now(), buckets)
		mean := 0.0
		for _, v := range u {
			mean += v
		}
		mean /= float64(len(u))
		out = append(out, Fig12Series{Framework: fw, Util: u, Mean: mean})
		cfg.printf("%-12s mean %5.1f%%  ", fw, 100*mean)
		for _, v := range u {
			cfg.printf("%s", sparkChar(v))
		}
		cfg.printf("\n")
	}
	return out, nil
}

// sparkChar renders a utilization value as a spark bar.
func sparkChar(v float64) string {
	bars := []string{" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"}
	i := int(v * float64(len(bars)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(bars) {
		i = len(bars) - 1
	}
	return bars[i]
}

// Fig13Row reports multi-node scaling for one dataset+model.
type Fig13Row struct {
	Dataset, Model string
	// Speedup[i] is the epoch-time speedup at Nodes[i] nodes vs 1 node.
	Nodes   []int
	Speedup []float64
}

// Fig13 reproduces Figure 13: epoch-time speedup up to 8 DGX nodes with one
// graph replica per node (§III-D); scaling is near-linear because only the
// gradient AllReduce crosses nodes.
func Fig13(cfg Config) ([]Fig13Row, error) {
	cfg = cfg.normalize()
	// Scaling needs enough training nodes that an epoch is many
	// iterations even when sharded over 64 GPUs; enforce a scale floor.
	scale := cfg.Scale
	if scale < 1e-3 {
		scale = 1e-3
	}
	specs := []dataset.Spec{
		dataset.OgbnPapers100M.Scaled(scale),
		dataset.Friendster.Scaled(scale),
		dataset.UKDomain.Scaled(scale),
	}
	models := []string{"gcn", "graphsage", "gat"}
	nodeCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		models = models[:2]
		specs = specs[:2]
	}
	cfg.printf("Figure 13: multi-node scaling (speedup vs 1 node)\n")
	cfg.printf("%-22s %-10s", "Dataset", "Model")
	for _, n := range nodeCounts {
		cfg.printf(" %6dN", n)
	}
	cfg.printf("\n")
	// One cell per dataset x model; node counts within a cell stay serial
	// because every speedup divides by the same cell's 1-node baseline.
	type f13cell struct {
		ds   *dataset.Dataset
		arch string
	}
	var cells []f13cell
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, arch := range models {
			cells = append(cells, f13cell{ds, arch})
		}
	}
	rows := make([]Fig13Row, len(cells))
	err := cfg.runCells(len(cells), func(ci int, tot *Totals) error {
		c := cells[ci]
		opts := cfg.trainOpts(c.arch)
		// Size the batch so a single node runs ~32 iterations per
		// epoch; scaling then has room to show (the paper's epochs
		// are hundreds of iterations).
		opts.Batch = len(c.ds.Train) / 8 / 32
		if opts.Batch < 4 {
			opts.Batch = 4
		}
		row := Fig13Row{Dataset: c.ds.Spec.Name, Model: c.arch, Nodes: nodeCounts}
		var base float64
		for _, n := range nodeCounts {
			tr, err := newTrainer(FwWholeGraph, n, c.ds, opts)
			if err != nil {
				return err
			}
			et := tr.RunEpoch().EpochTime
			tot.Fold(tr)
			if n == 1 {
				base = et
			}
			row.Speedup = append(row.Speedup, base/et)
		}
		rows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		cfg.printf("%-22s %-10s", row.Dataset, row.Model)
		for _, s := range row.Speedup {
			cfg.printf(" %6.2fx", s)
		}
		cfg.printf("\n")
	}
	// The paper's §IV-D claim: "80 epochs of a 3-layer GraphSAGE ... on
	// ogbn-papers100M in 66 seconds with 8 DGX-A100 servers". Reproduce
	// the measurement at our scale: 80 epochs at 8 nodes, virtual time.
	claim, usedScale, err := claim80Epochs(cfg)
	if err != nil {
		return nil, err
	}
	cfg.printf("\n80 epochs GraphSAGE on ogbn-papers100M @ 8 nodes: %s virtual at scale %g\n",
		fmtSeconds(claim), usedScale)
	cfg.printf("(paper §IV-D: 66 s at full scale; naive x%g volume extrapolation: %s)\n",
		1/usedScale, fmtSeconds(claim/usedScale))
	return rows, nil
}

// claim80Epochs measures the virtual time of 80 GraphSAGE epochs on the
// scaled papers100M over 8 simulated DGX nodes (one epoch measured, 80
// extrapolated — epochs are statistically identical). It returns the time
// and the scale actually used (floored like the rest of Fig13).
func claim80Epochs(cfg Config) (float64, float64, error) {
	scale := cfg.Scale
	if scale < 1e-3 {
		scale = 1e-3
	}
	ds, err := generate(dataset.OgbnPapers100M.Scaled(scale))
	if err != nil {
		return 0, 0, err
	}
	opts := cfg.trainOpts("graphsage")
	opts.Batch = len(ds.Train) / 64 / 16 // ~16 iterations per epoch at 64 workers
	if opts.Batch < 4 {
		opts.Batch = 4
	}
	tr, err := newTrainer(FwWholeGraph, 8, ds, opts)
	if err != nil {
		return 0, 0, err
	}
	st := tr.RunEpoch()
	cfg.Totals.Fold(tr)
	return 80 * st.EpochTime, scale, nil
}
