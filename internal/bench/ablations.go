package bench

import (
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/graph"
	"wholegraph/internal/sampling"
	"wholegraph/internal/sim"
	"wholegraph/internal/unique"
	"wholegraph/internal/wholemem"
)

// Ablations of the design choices DESIGN.md calls out. Each isolates one
// decision the paper makes and measures the alternative it rejects.

// StorageRow reports one feature-storage backing in the storage ablation.
type StorageRow struct {
	Kind       wholemem.Kind
	GatherTime float64 // per-batch feature gather, virtual seconds
	EpochTime  float64
}

// AblationStorage evaluates the §II-B design choice: back the node-feature
// table with GPUDirect peer access (WholeGraph), Unified Memory, or pinned
// host memory, and train identically on each. Peer access must win by the
// margins Table I implies.
func AblationStorage(cfg Config) ([]StorageRow, error) {
	cfg = cfg.normalize()
	ds, err := generate(dataset.OgbnPapers100M.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	opts := cfg.trainOpts("graphsage")
	kinds := []wholemem.Kind{wholemem.DeviceP2P, wholemem.DeviceUM, wholemem.PinnedHost}
	rows := make([]StorageRow, len(kinds))
	var cells []cell
	for i, kind := range kinds {
		// Per-batch gather cost on a representative batch.
		store, err := flatStore(ds)
		if err != nil {
			return nil, err
		}
		store.PG.Feat.WithKind(kind)
		_, tm := core.NewLoader(store, store.Machine.Devs[0], opts.Fanouts, cfg.Seed).BuildBatch(firstTrain(ds, opts.Batch))
		rows[i] = StorageRow{Kind: kind, GatherTime: tm.Gather}
		// Epoch time with the same backing.
		cells = append(cells, cell{fw: FwWholeGraph, ds: ds, opts: opts, store: func(m *sim.Machine) (*core.Store, error) {
			s, err := core.NewStore(m, 0, ds)
			if err == nil {
				s.PG.Feat.WithKind(kind)
			}
			return s, err
		}})
	}
	// The run totals leave the storage and fabric ablations out.
	cfg.Totals = nil
	runs, err := cfg.runGroups(cells, 1)
	if err != nil {
		return nil, err
	}
	cfg.printf("Ablation: feature storage backing (GraphSAGE, ogbn-papers100M)\n")
	cfg.printf("%-14s %14s %14s\n", "backing", "gather/batch", "epoch")
	for i := range rows {
		rows[i].EpochTime = runs[i].last().EpochTime
		cfg.printf("%-14s %14s %14s\n", rows[i].Kind, fmtSeconds(rows[i].GatherTime), fmtSeconds(rows[i].EpochTime))
	}
	return rows, nil
}

// UniqueRow compares the hash-table and sort-based AppendUnique on one
// sampled workload size.
type UniqueRow struct {
	Neighbors int
	HashTime  float64
	SortTime  float64
}

// AblationUnique evaluates the §III-C2 design choice: the warpcore-style
// hash table against "the sort method used in other frameworks", on
// realistic sampled-batch workloads.
func AblationUnique(cfg Config) ([]UniqueRow, error) {
	cfg = cfg.normalize()
	rng := cfg.seededRand(31)
	cfg.printf("Ablation: AppendUnique hash table vs sort\n")
	cfg.printf("%12s %12s %12s %9s\n", "neighbors", "hash", "sort", "ratio")
	var rows []UniqueRow
	for _, nNeighbors := range []int{1 << 10, 1 << 13, 1 << 16, 1 << 19} {
		targets := make([]graph.GlobalID, 512)
		for i := range targets {
			targets[i] = graph.MakeGlobalID(i%8, int64(1_000_000+i))
		}
		neighbors := make([]graph.GlobalID, nNeighbors)
		for i := range neighbors {
			v := rng.Intn(nNeighbors) // ~63% unique, like sampled batches
			neighbors[i] = graph.MakeGlobalID(v%8, int64(v))
		}
		m := sim.NewMachine(sim.DGXA100(1))
		unique.AppendUnique(m.Devs[0], targets, neighbors)
		unique.AppendUniqueSort(m.Devs[1], targets, neighbors)
		row := UniqueRow{
			Neighbors: nNeighbors,
			HashTime:  m.Devs[0].Now(),
			SortTime:  m.Devs[1].Now(),
		}
		rows = append(rows, row)
		cfg.printf("%12d %12s %12s %8.2fx\n",
			row.Neighbors, fmtSeconds(row.HashTime), fmtSeconds(row.SortTime),
			row.SortTime/row.HashTime)
	}
	return rows, nil
}

// DedupRow compares gathering with and without duplicate removal.
type DedupRow struct {
	Dataset string
	// UniqueRows / SampledRows: feature rows gathered with and without
	// AppendUnique deduplication.
	UniqueRows, SampledRows int
	// DedupTime / NoDedupTime: gather time for the two strategies.
	DedupTime, NoDedupTime float64
}

// AblationDedup evaluates why AppendUnique exists at all (§III-C2: "to
// decrease the amount of gathering features from other GPU, it is better to
// get rid of these duplicate nodes"): gather the features of the unique
// input set versus one row per sampled neighbor occurrence.
func AblationDedup(cfg Config) ([]DedupRow, error) {
	cfg = cfg.normalize()
	cfg.printf("Ablation: feature gathering with vs without deduplication\n")
	cfg.printf("%-22s %10s %10s %12s %12s %8s\n",
		"dataset", "unique", "sampled", "dedup", "no-dedup", "saving")
	opts := cfg.trainOpts("graphsage")
	var rows []DedupRow
	for _, spec := range []dataset.Spec{
		dataset.OgbnProducts.Scaled(cfg.Scale),
		dataset.OgbnPapers100M.Scaled(cfg.Scale),
	} {
		ds, err := generate(spec)
		if err != nil {
			return nil, err
		}
		store, err := flatStore(ds)
		if err != nil {
			return nil, err
		}
		m := store.Machine
		b, tm := core.NewLoader(store, m.Devs[0], opts.Fanouts, cfg.Seed).BuildBatch(firstTrain(ds, opts.Batch))

		// Without dedup: one gather row per edge endpoint of every block
		// plus the targets, as a pipeline without AppendUnique would fetch.
		sampled := b.BatchSize()
		for _, blk := range b.Blocks {
			sampled += int(blk.NumEdges())
		}
		dim := ds.Spec.FeatDim
		rowsIdx := make([]int64, sampled)
		rng := cfg.seededRand(37)
		maxRow := store.PG.Feat.Len() / int64(dim)
		for i := range rowsIdx {
			rowsIdx[i] = rng.Int63n(maxRow)
		}
		dev := m.Devs[1]
		t0 := dev.Now()
		store.PG.Feat.GatherRows(dev, rowsIdx, dim, make([]float32, sampled*dim), "nodedup")
		noDedup := dev.Now() - t0

		row := DedupRow{
			Dataset:     spec.Name,
			UniqueRows:  b.Feat.R,
			SampledRows: sampled,
			DedupTime:   tm.Gather,
			NoDedupTime: noDedup,
		}
		rows = append(rows, row)
		cfg.printf("%-22s %10d %10d %12s %12s %7.2fx\n",
			row.Dataset, row.UniqueRows, row.SampledRows,
			fmtSeconds(row.DedupTime), fmtSeconds(row.NoDedupTime),
			row.NoDedupTime/row.DedupTime)
	}
	return rows, nil
}

// HardwareRow compares WholeGraph's advantage on two fabrics.
type HardwareRow struct {
	Machine      string
	WGEpoch      float64
	DGLEpoch     float64
	SpeedupVsDGL float64
}

// AblationHardware evaluates the hardware the design banks on: the same
// WholeGraph-vs-DGL comparison on a DGX-A100 (NVSwitch) and on a commodity
// PCIe-only 8-GPU server. Peer-access graph storage still wins on PCIe
// (the CPU leaves the critical path), but by much less — the NVLink fabric
// is what buys the paper's headline factors.
func AblationHardware(cfg Config) ([]HardwareRow, error) {
	cfg = cfg.normalize()
	ds, err := generate(dataset.OgbnPapers100M.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	opts := cfg.trainOpts("graphsage")
	names := []string{"DGX-A100", "PCIe-server"}
	var cells []cell
	for _, hw := range []sim.MachineConfig{sim.DGXA100(1), sim.PCIeServer(1)} {
		cells = append(cells, cell{fw: FwWholeGraph, ds: ds, hw: hw, opts: opts}, cell{fw: FwDGL, ds: ds, hw: hw, opts: opts})
	}
	cfg.Totals = nil // see AblationStorage
	runs, err := cfg.runGroups(cells, 1)
	if err != nil {
		return nil, err
	}
	cfg.printf("Ablation: fabric dependence (GraphSAGE, ogbn-papers100M)\n")
	cfg.printf("%-14s %12s %12s %10s\n", "machine", "WholeGraph", "DGL", "speedup")
	var rows []HardwareRow
	for i, name := range names {
		wg, dgl := runs[2*i], runs[2*i+1]
		row := HardwareRow{Machine: name, WGEpoch: wg.mean(), DGLEpoch: dgl.mean(), SpeedupVsDGL: speedup(dgl, wg)}
		rows = append(rows, row)
		cfg.printf("%-14s %12s %12s %9.2fx\n",
			row.Machine, fmtSeconds(row.WGEpoch), fmtSeconds(row.DGLEpoch), row.SpeedupVsDGL)
	}
	return rows, nil
}

// PartitionRow reports one node-placement strategy.
type PartitionRow struct {
	Strategy string
	// RemoteFrac is the fraction of gathered feature bytes that crossed
	// NVLink during the measured batches.
	RemoteFrac float64
	// EdgeImbalance is max/mean edges per rank (load balance).
	EdgeImbalance float64
	GatherTime    float64
}

// AblationPartition evaluates the §III-B placement choice: hash
// partitioning (the paper's), contiguous ranges, and a community-aware
// placement that co-locates same-class nodes (an idealized METIS stand-in
// possible because the synthetic generator's communities are known).
// Community placement cuts remote traffic but hash keeps load balanced with
// zero metadata — on NVSwitch the traffic saving barely matters, which is
// the design's justification.
func AblationPartition(cfg Config) ([]PartitionRow, error) {
	cfg = cfg.normalize()
	ds, err := generate(dataset.OgbnProducts.Scaled(cfg.Scale))
	if err != nil {
		return nil, err
	}
	opts := cfg.trainOpts("graphsage")
	cfg.printf("Ablation: node placement strategy (GraphSAGE batches, ogbn-products)\n")
	cfg.printf("%-12s %12s %14s %14s\n", "strategy", "remote frac", "edge max/mean", "gather total")

	parts := 8
	strategies := []struct {
		name  string
		owner func(int64) int
	}{
		{"hash", graph.HashOwner(parts)},
		{"range", graph.RangeOwner(ds.Spec.Nodes, parts)},
		{"community", func(v int64) int { return int(ds.Spec.Class(v)) % parts }},
	}
	var rows []PartitionRow
	for _, st := range strategies {
		m := sim.NewMachine(sim.DGXA100(1))
		comm, err := wholemem.NewComm(m.NodeDevs(0))
		if err != nil {
			return nil, err
		}
		l, err := graph.NewLayout(ds.Graph, ds.Feat, ds.Spec.FeatDim, parts, st.owner)
		if err != nil {
			return nil, err
		}
		pg, err := l.Map(comm, graph.Paging{})
		if err != nil {
			return nil, err
		}
		m.Reset()
		dev := m.Devs[0]

		// Locality only materializes when a worker trains the targets its
		// own rank owns (placement-aligned sharding): take rank-0-owned
		// training nodes as the batch.
		var targets []graph.GlobalID
		for _, v := range ds.Train {
			if pg.Owner[v].Rank() == 0 {
				targets = append(targets, pg.Owner[v])
			}
			if len(targets) == opts.Batch {
				break
			}
		}
		smp := sampling.NewGPUSampler(pg, dev, cfg.Seed)
		cur := targets
		for _, fan := range opts.Fanouts {
			nb := smp.SampleLayer(cur, fan)
			cur = unique.AppendUnique(dev, cur, nb.Neighbors).Unique
		}
		fRows := make([]int64, len(cur))
		var remote int
		for i, gid := range cur {
			fRows[i] = pg.FeatRow(gid)
			if gid.Rank() != 0 {
				remote++
			}
		}
		dim := ds.Spec.FeatDim
		gather := pg.Feat.GatherRows(dev, fRows, dim, make([]float32, len(fRows)*dim), "abl")

		row := PartitionRow{
			Strategy:      st.name,
			RemoteFrac:    float64(remote) / float64(len(cur)),
			EdgeImbalance: edgeImbalance(pg),
			GatherTime:    gather,
		}
		rows = append(rows, row)
		cfg.printf("%-12s %11.1f%% %14.2f %14s\n",
			row.Strategy, 100*row.RemoteFrac, row.EdgeImbalance, fmtSeconds(row.GatherTime))
	}
	return rows, nil
}

// edgeImbalance returns max/mean stored edges across ranks.
func edgeImbalance(pg *graph.Partitioned) float64 {
	var max, sum float64
	n := 0
	for r := 0; r < pg.Comm.Size(); r++ {
		e := float64(pg.Col.ShardLen(r))
		sum += e
		if e > max {
			max = e
		}
		n++
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(n))
}
