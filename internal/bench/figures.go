package bench

import (
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/gather"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
	"wholegraph/internal/train"
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
	// One group per dataset x model: the three frameworks, each on a fresh
	// machine.
	fws := []Framework{FwPyG, FwDGL, FwWholeGraph}
	var cells []cell
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, arch := range []string{"gcn", "graphsage", "gat"} {
			for _, fw := range fws {
				cells = append(cells, cell{fw: fw, ds: ds, opts: cfg.trainOpts(arch)})
			}
		}
	}
	runs, err := cfg.runGroups(cells, len(fws))
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for i := 0; i < len(cells); i += len(fws) {
		row := Table5Row{
			Dataset: cells[i].ds.Spec.Name, Model: cells[i].opts.Arch,
			EpochTime: map[Framework]float64{},
			Timing:    map[Framework]core.Timing{},
		}
		for j, fw := range fws {
			row.EpochTime[fw], row.Timing[fw] = runs[i+j].last().EpochTime, runs[i+j].last().Timing
		}
		row.SpeedupVsPyG = speedup(runs[i], runs[i+2])
		row.SpeedupVsDGL = speedup(runs[i+1], runs[i+2])
		rows = append(rows, row)
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
	wgAcc, dglAcc := make([]float64, cfg.Epochs), make([]float64, cfg.Epochs)
	evalInto := func(acc []float64) func(*train.Trainer, int) error {
		return func(tr *train.Trainer, e int) (err error) {
			acc[e], err = tr.EvaluateWithLabels(evalIDs, evalLabels)
			return err
		}
	}
	opts := cfg.accuracyOpts("graphsage")
	cells := []cell{
		{fw: FwWholeGraph, ds: ds, opts: opts, epochs: cfg.Epochs, after: evalInto(wgAcc)},
		{fw: FwDGL, ds: ds, opts: opts, epochs: cfg.Epochs, after: evalInto(dglAcc)},
	}
	if _, err := cfg.runGroups(cells, 1); err != nil {
		return nil, err
	}
	cfg.printf("Figure 7: validation accuracy per epoch (GraphSAGE, ogbn-products)\n")
	cfg.printf("%6s %10s %12s\n", "epoch", "DGL", "WholeGraph")
	var pts []Fig7Point
	for e := range wgAcc {
		pts = append(pts, Fig7Point{Epoch: e + 1, DGLAcc: dglAcc[e], WGAcc: wgAcc[e]})
		cfg.printf("%6d %9.2f%% %11.2f%%\n", e+1, 100*dglAcc[e], 100*wgAcc[e])
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
	// One row list and one destination, sized for the smallest segment,
	// serve every device and segment size.
	rowBuf := make([]int64, perGPUBytes/4)
	dst := make([]float32, perGPUBytes/4)
	var pts []Fig8Point
	for _, seg := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		m.Reset()
		dim := seg / 4
		end := 0.0
		for _, dev := range m.NodeDevs(0) {
			rows := rowBuf[:int(perGPUBytes)/seg]
			maxRow := mem.Len() / int64(dim)
			for i := range rows {
				rows[i] = rng.Int63n(maxRow)
			}
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
		store, err := flatStore(ds)
		if err != nil {
			return nil, err
		}
		m := store.Machine
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
			b, _ := ld.BuildBatch(firstTrain(ds, opts.Batch))
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
	var cells []cell
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, arch := range []string{"gcn", "graphsage", "gat"} {
			for _, be := range backends {
				opts := cfg.trainOpts(arch)
				opts.Backend = be
				cells = append(cells, cell{fw: FwWholeGraph, ds: ds, opts: opts})
			}
		}
	}
	runs, err := cfg.runGroups(cells, 1)
	if err != nil {
		return nil, err
	}
	cfg.printf("Figure 11: WholeGraph with native vs third-party GNN layers\n")
	cfg.printf("%-22s %-10s %-12s %12s %12s %12s %12s\n",
		"Dataset", "Model", "Layers", "Sample", "Gather", "Train", "Epoch")
	var rows []Fig11Row
	for i := 0; i < len(cells); i += len(backends) {
		row := Fig11Row{
			Dataset: cells[i].ds.Spec.Name, Model: cells[i].opts.Arch,
			Timing:    map[string]core.Timing{},
			EpochTime: map[string]float64{},
		}
		for j, be := range backends {
			st := runs[i+j].last()
			row.Timing[be.String()], row.EpochTime[be.String()] = st.Timing, st.EpochTime
			cfg.printf("%-22s %-10s %-12s %12s %12s %12s %12s\n",
				row.Dataset, row.Model, be,
				fmtSeconds(st.Timing.Sample), fmtSeconds(st.Timing.Gather),
				fmtSeconds(st.Timing.Train), fmtSeconds(st.EpochTime))
		}
		row.SpeedupVsDGL = speedup(runs[i+1], runs[i])
		row.SpeedupVsPyG = speedup(runs[i+2], runs[i])
		rows = append(rows, row)
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
	fws := []Framework{FwPyG, FwDGL, FwWholeGraph}
	out := make([]Fig12Series, len(fws))
	var cells []cell
	for i, fw := range fws {
		opts := cfg.trainOpts("graphsage")
		opts.Trace = true
		cells = append(cells, cell{fw: fw, ds: ds, opts: opts, epochs: 2, after: func(tr *train.Trainer, e int) error {
			if e == 1 {
				dev := tr.Worker0Device()
				out[i] = Fig12Series{Framework: fw, Util: sim.Utilization(dev.Trace(), 0, dev.Now(), buckets)}
			}
			return nil
		}})
	}
	if _, err := cfg.runGroups(cells, 1); err != nil {
		return nil, err
	}
	cfg.printf("Figure 12: GPU utilization during training (%d buckets over the window)\n", buckets)
	for i := range out {
		for _, v := range out[i].Util {
			out[i].Mean += v
		}
		out[i].Mean /= float64(len(out[i].Util))
		cfg.printf("%-12s mean %5.1f%%  ", out[i].Framework, 100*out[i].Mean)
		for _, v := range out[i].Util {
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
	// ScaleUsed is the scale the row ran at: the requested one, floored.
	ScaleUsed float64 `json:"scale_used"`
}

// Fig13 reproduces Figure 13: epoch-time speedup up to 8 DGX nodes with one
// graph replica per node (§III-D); scaling is near-linear because only the
// gradient AllReduce crosses nodes.
func Fig13(cfg Config) ([]Fig13Row, error) {
	cfg = cfg.normalize()
	// Scaling needs enough training nodes that an epoch is many iterations
	// even when sharded over 64 GPUs.
	scale := cfg.scaleFloor(1e-3)
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
	// One group per dataset x model, its node counts in order.
	var cells []cell
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		for _, arch := range models {
			opts := cfg.trainOpts(arch)
			// Size the batch so a single node runs ~32 iterations per
			// epoch; scaling then has room to show (the paper's epochs
			// are hundreds of iterations).
			opts.Batch = max(len(ds.Train)/8/32, 4)
			for _, n := range nodeCounts {
				cells = append(cells, cell{fw: FwWholeGraph, ds: ds, hw: sim.DGXA100(n), opts: opts})
			}
		}
	}
	runs, err := cfg.runGroups(cells, len(nodeCounts))
	if err != nil {
		return nil, err
	}
	var rows []Fig13Row
	for i := 0; i < len(cells); i += len(nodeCounts) {
		row := Fig13Row{Dataset: cells[i].ds.Spec.Name, Model: cells[i].opts.Arch, Nodes: nodeCounts, ScaleUsed: scale}
		cfg.printf("%-22s %-10s", row.Dataset, row.Model)
		for j := range nodeCounts {
			row.Speedup = append(row.Speedup, speedup(runs[i], runs[i+j]))
			cfg.printf(" %6.2fx", row.Speedup[j])
		}
		cfg.printf("\n")
		rows = append(rows, row)
	}
	// The paper's §IV-D claim: "80 epochs of a 3-layer GraphSAGE ... on
	// ogbn-papers100M in 66 seconds with 8 DGX-A100 servers". Reproduce the
	// measurement at our scale: one epoch at 8 nodes, ~16 iterations per
	// epoch at 64 workers, times 80 (epochs are statistically identical).
	ds, err := generate(specs[0])
	if err != nil {
		return nil, err
	}
	opts := cfg.trainOpts("graphsage")
	opts.Batch = max(len(ds.Train)/64/16, 4)
	claim, err := cfg.runGroups([]cell{{fw: FwWholeGraph, ds: ds, hw: sim.DGXA100(8), opts: opts}}, 1)
	if err != nil {
		return nil, err
	}
	t80 := 80 * claim[0].last().EpochTime
	cfg.printf("\n80 epochs GraphSAGE on ogbn-papers100M @ 8 nodes: %s virtual at scale %g\n", fmtSeconds(t80), scale)
	cfg.printf("(paper §IV-D: 66 s at full scale; naive x%g volume extrapolation: %s)\n", 1/scale, fmtSeconds(t80/scale))
	return rows, nil
}
