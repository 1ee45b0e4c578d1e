package bench

import (
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

// Table1Row is one row of the UM vs P2P latency microbenchmark.
type Table1Row struct {
	SizeGB   float64
	UMLatUs  float64
	P2PLatUs float64
}

// Table1 reproduces Table I: dependent random-access latency over memory
// striped across the 8 GPUs, under Unified Memory vs GPUDirect P2P. The
// pointer chase is real (each access depends on the previous value); the
// per-access service time comes from the calibrated latency models, with
// the working-set size scaled down in backing storage but declared at the
// paper's sizes.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.normalize()
	accesses := 100_000
	if cfg.Quick {
		accesses = 5_000
	}
	m := sim.NewMachine(sim.DGXA100(1))
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		return nil, err
	}
	// Backing array for the chase: 1M slots standing in for the declared
	// working set.
	const slots = 1 << 20
	mem := wholemem.Alloc[int64](comm, slots)
	rng := cfg.seededRand(1)
	perm := rng.Perm(slots)
	// Random cyclic permutation so the chain visits the whole array.
	for i := 0; i < slots; i++ {
		mem.Set(int64(perm[i]), int64(perm[(i+1)%slots]))
	}

	cfg.printf("Table I: UM vs GPUDirect P2P access latency (us)\n")
	cfg.printf("%-10s %12s %12s\n", "Size (GB)", "UM", "Peer Access")
	var rows []Table1Row
	for _, gb := range []float64{8, 16, 32, 64, 128} {
		dev := m.Devs[0]
		chase := func(kind string) float64 {
			m.Reset()
			idx := int64(0)
			for i := 0; i < accesses; i++ {
				idx = mem.Get(idx)
			}
			if idx < 0 {
				panic("unreachable")
			}
			if kind == "um" {
				return dev.ChaseUM(accesses, gb) / float64(accesses)
			}
			return dev.ChaseP2P(accesses, gb) / float64(accesses)
		}
		row := Table1Row{
			SizeGB:   gb,
			UMLatUs:  chase("um") * 1e6,
			P2PLatUs: chase("p2p") * 1e6,
		}
		rows = append(rows, row)
		cfg.printf("%-10.0f %12.1f %12.2f\n", row.SizeGB, row.UMLatUs, row.P2PLatUs)
	}
	return rows, nil
}

// Table2Row is one dataset row: the paper-scale spec and the generated
// scaled instance.
type Table2Row struct {
	Name                 string
	SpecNodes, SpecEdges int64
	FeatDim              int
	GenNodes, GenEdges   int64
}

// Table2 reproduces Table II: the evaluation datasets. Full-scale counts
// come from the specs; the generated columns show the scaled instances the
// other experiments run on.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.normalize()
	cfg.printf("Table II: evaluation graphs (spec @ full scale, generated @ %g)\n", cfg.Scale)
	cfg.printf("%-18s %12s %12s %6s %12s %12s\n", "Graph", "Nodes", "Edges", "Feat", "GenNodes", "GenEdges")
	var rows []Table2Row
	for _, full := range dataset.All() {
		ds, err := generate(full.Scaled(cfg.Scale))
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Name:      full.Name,
			SpecNodes: full.Nodes,
			SpecEdges: full.Edges,
			FeatDim:   full.FeatDim,
			GenNodes:  ds.Graph.N,
			GenEdges:  ds.NumEdgePairs(),
		}
		rows = append(rows, row)
		cfg.printf("%-18s %12d %12d %6d %12d %12d\n",
			row.Name, row.SpecNodes, row.SpecEdges, row.FeatDim, row.GenNodes, row.GenEdges)
	}
	return rows, nil
}

// Table3Row reports validation/test accuracy for one dataset+model across
// the three frameworks.
type Table3Row struct {
	Dataset, Model string
	Valid, Test    map[Framework]float64
}

// Table3 reproduces Table III: PyG, DGL and WholeGraph converge to the same
// accuracy because they train the same models on the same samples; the
// table verifies the parity on the two labeled datasets.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.normalize()
	specs := []dataset.Spec{
		dataset.OgbnProducts.Scaled(cfg.Scale),
		dataset.OgbnPapers100M.Scaled(cfg.Scale),
	}
	models := []string{"gcn", "graphsage", "gat"}
	fws := []Framework{FwDGL, FwPyG, FwWholeGraph}
	cfg.printf("Table III: validation/test accuracy after %d epochs\n", cfg.Epochs)
	cfg.printf("%-22s %-10s %18s %18s %18s\n", "Graph", "Model", "DGL", "PyG", "WholeGraph")
	// One cell per dataset x model; each cell trains all three frameworks
	// on its own machines. Datasets and eval sets are prepared up front
	// (they are shared read-only across cells), rows print after the join.
	type t3cell struct {
		ds                   *dataset.Dataset
		valIDs, testIDs      []int64
		valLabels, tstLabels []int32
		arch                 string
	}
	var cells []t3cell
	for _, spec := range specs {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		valIDs, valLabels := evalSet(cfg, ds, 3)
		testIDs, testLabels := evalSet(cfg, ds, 4)
		for _, arch := range models {
			cells = append(cells, t3cell{ds, valIDs, testIDs, valLabels, testLabels, arch})
		}
	}
	rows := make([]Table3Row, len(cells))
	err := cfg.runCells(len(cells), func(ci int, tot *Totals) error {
		c := cells[ci]
		row := Table3Row{
			Dataset: c.ds.Spec.Name, Model: c.arch,
			Valid: map[Framework]float64{}, Test: map[Framework]float64{},
		}
		for _, fw := range fws {
			tr, err := newTrainer(fw, 1, c.ds, cfg.accuracyOpts(c.arch))
			if err != nil {
				return err
			}
			for e := 0; e < cfg.Epochs; e++ {
				tr.RunEpoch()
			}
			if row.Valid[fw], err = tr.EvaluateWithLabels(c.valIDs, c.valLabels); err != nil {
				return err
			}
			if row.Test[fw], err = tr.EvaluateWithLabels(c.testIDs, c.tstLabels); err != nil {
				return err
			}
			tot.Fold(tr)
		}
		rows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		cfg.printf("%-22s %-10s   %6.2f%% / %6.2f%%  %6.2f%% / %6.2f%%  %6.2f%% / %6.2f%%\n",
			row.Dataset, row.Model,
			100*row.Valid[FwDGL], 100*row.Test[FwDGL],
			100*row.Valid[FwPyG], 100*row.Test[FwPyG],
			100*row.Valid[FwWholeGraph], 100*row.Test[FwWholeGraph])
	}
	return rows, nil
}

// Table4Result reports the memory accounting for ogbn-papers100M.
type Table4Result struct {
	// Measured bytes per GPU on the scaled instance.
	ScaledStructPerGPU, ScaledFeatPerGPU int64
	// Extrapolated to full scale (divide by the scale factor), in GB.
	FullStructPerGPU, FullFeatPerGPU float64
	// Theoretical full-scale totals (paper: 24 GB structure, 53 GB
	// features), in GB.
	TheoryStructTotal, TheoryFeatTotal float64
	// Estimated full-scale training memory per GPU in GB (paper: 20.4).
	TrainPerGPU float64
}

// Table4 reproduces Table IV: where ogbn-papers100M's bytes live. The
// scaled store is measured for real; full-scale numbers extrapolate by the
// scale factor and are checked against the paper's theoretical totals.
func Table4(cfg Config) (*Table4Result, error) {
	cfg = cfg.normalize()
	spec := dataset.OgbnPapers100M.Scaled(cfg.Scale)
	ds, err := generate(spec)
	if err != nil {
		return nil, err
	}
	m := sim.NewMachine(sim.DGXA100(1))
	store, err := core.NewStore(m, 0, ds)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	// Mean per GPU: hash partitioning balances nodes; the synthetic power
	// law at small scale can park a mega-hub's edges on one rank, so the
	// mean is the representative per-GPU figure the paper reports.
	var structSum, featSum int64
	for _, b := range store.PG.StructureBytesPerRank() {
		structSum += b
	}
	for _, b := range store.PG.FeatureBytesPerRank() {
		featSum += b
	}
	ranks := int64(store.Comm.Size())
	res.ScaledStructPerGPU = structSum / ranks
	res.ScaledFeatPerGPU = featSum / ranks
	res.FullStructPerGPU = float64(res.ScaledStructPerGPU) / cfg.Scale / 1e9
	res.FullFeatPerGPU = float64(res.ScaledFeatPerGPU) / cfg.Scale / 1e9

	full := dataset.OgbnPapers100M
	// Paper accounting: undirected doubles the 1.6B edges, 8 bytes each.
	res.TheoryStructTotal = float64(2*full.Edges*8) / 1e9
	res.TheoryFeatTotal = float64(full.Nodes*int64(full.FeatDim)*4) / 1e9

	// Training memory estimate at paper parameters: per-layer activation
	// footprints (forward + backward + Adam temporaries) using the layer
	// fan-out volumes with the deduplication ratio measured on the scaled
	// graph.
	res.TrainPerGPU = estimateTrainingGB(store, full.Nodes, 512, []int{30, 30, 30}, full.FeatDim, 256, full.NumClasses)

	cfg.printf("Table IV: memory usage of WholeGraph for ogbn-papers100M (per GPU, full-scale)\n")
	cfg.printf("%-18s %22s %22s\n", "", "Measured/GPU (GB)", "Theoretical total (GB)")
	cfg.printf("%-18s %22.1f %22.1f\n", "Graph Structure", res.FullStructPerGPU, res.TheoryStructTotal)
	cfg.printf("%-18s %22.1f %22.1f\n", "Node Feature", res.FullFeatPerGPU, res.TheoryFeatTotal)
	cfg.printf("%-18s %22.1f %22s\n", "Training (est.)", res.TrainPerGPU, "-")
	return res, nil
}

// estimateTrainingGB estimates the per-GPU training footprint at full
// scale: model and optimizer state plus per-layer activation tensors for
// forward, backward and workspace copies. The per-hop deduplication ratio
// is measured with one real batch on the scaled graph; hop volumes then
// expand at the paper's batch size and fanouts, capped by the full graph
// size.
func estimateTrainingGB(store *core.Store, fullNodes int64, batch int, fanouts []int, inDim, hidden, classes int) float64 {
	ld := core.NewLoader(store, store.Comm.Devs[0], []int{5, 5, 5}, 99)
	n := 64
	if len(store.DS.Train) < n {
		n = len(store.DS.Train)
	}
	b, _ := ld.BuildBatch(store.DS.Train[:n])
	dedup := make([]float64, len(b.Blocks))
	for l, blk := range b.Blocks {
		raw := float64(blk.NumTargets) * 5
		dedup[l] = float64(blk.NumNodes-blk.NumTargets) / raw
		if dedup[l] > 1 {
			dedup[l] = 1
		}
	}
	nodes := float64(batch)
	var act float64
	// Input dimension of each expanding hop, outermost last: the innermost
	// (largest) set carries raw features.
	for l := len(fanouts) - 1; l >= 0; l-- {
		d := hidden
		if l == 0 {
			d = inDim
		}
		keep := dedup[min(l, len(dedup)-1)]
		next := nodes + nodes*float64(fanouts[l])*keep
		if next > float64(fullNodes) {
			next = float64(fullNodes)
		}
		// Activations in+out, gradients, and two workspace copies.
		act += next * float64(d) * 4 * 5
		nodes = next
	}
	params := float64((inDim+hidden)*hidden+hidden*classes) * 4
	return (act + params*4) / 1e9
}

// SetupResult reports the distributed shared memory setup cost (§III-B).
type SetupResult struct {
	SizeGB  float64
	Seconds float64
}

// Setup measures the one-time shared-memory construction cost the paper
// quotes as "tens to one or two hundred milliseconds".
func Setup(cfg Config) ([]SetupResult, error) {
	cfg = cfg.normalize()
	cfg.printf("Shared-memory setup cost (one-time, per allocation)\n")
	var out []SetupResult
	for _, gb := range []float64{1, 8, 32, 128} {
		m := sim.NewMachine(sim.DGXA100(1))
		comm, err := wholemem.NewComm(m.NodeDevs(0))
		if err != nil {
			return nil, err
		}
		// Allocate a small real backing array; the charged cost uses the
		// declared size through a synthetic malloc charge per rank.
		wholemem.Alloc[int64](comm, 1<<16)
		for _, d := range m.NodeDevs(0) {
			d.Malloc(gb * 1e9 / 8)
		}
		out = append(out, SetupResult{SizeGB: gb, Seconds: m.MaxTime()})
		cfg.printf("  %6.0f GB: %s\n", gb, fmtSeconds(m.MaxTime()))
	}
	return out, nil
}
