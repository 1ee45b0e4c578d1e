package bench

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"wholegraph/internal/dataset"
)

// FeatstoreVariantRow is one row of the paged-feature-store ablation: the
// flat in-memory slab against the paged store.
type FeatstoreVariantRow struct {
	Variant    string    // "flat", "paged/raw"
	EpochTime  float64   // virtual seconds, last epoch
	GatherTime float64   // virtual seconds in the gather phase, last epoch
	Losses     []float64 // per-epoch training loss
	// BitIdentical reports whether every epoch's loss equals the flat
	// baseline's bit-for-bit. Must hold for paged/raw.
	BitIdentical  bool
	HitRate       float64 // BlockCache page hit rate
	EncodedBytes  int64   // the paged feature table's bytes (virtual)
	ResidentBytes int64   // page bytes resident in BlockCaches after the run
}

// AblationFeatstore compares training through the flat feature slab against
// the out-of-core paged store (§IV ablation style): the paged store must
// reproduce the slab bit-for-bit while bounding feature residency.
func AblationFeatstore(cfg Config) ([]FeatstoreVariantRow, error) {
	cfg = cfg.normalize()
	spec := dataset.OgbnProducts.Scaled(cfg.Scale)
	cfg.printf("Feature store ablation: flat slab vs paged host features (%s, GraphSAGE)\n", spec.Name)
	ds, err := generate(spec)
	if err != nil {
		return nil, err
	}
	epochs := 3
	if cfg.Quick {
		epochs = 2
	}
	var cells []cell
	for _, paged := range []bool{false, true} {
		c := cell{fw: FwWholeGraph, ds: ds, opts: cfg.trainOpts("graphsage"), epochs: epochs}
		c.opts.PagedFeatures = paged
		if paged && c.opts.FeatPageRows == 0 {
			c.opts.FeatPageRows = 64
		}
		cells = append(cells, c)
	}
	runs, err := cfg.runGroups(cells, 1)
	if err != nil {
		return nil, err
	}
	cfg.printf("%-10s %12s %12s %12s %9s %12s %12s %6s\n",
		"variant", "epoch", "gather", "final loss", "hit rate", "table", "resident", "exact")
	var rows []FeatstoreVariantRow
	for i, r := range runs {
		row := FeatstoreVariantRow{
			Variant: "flat", EpochTime: r.last().EpochTime, GatherTime: r.last().Timing.Gather, Losses: r.losses,
			BitIdentical: slices.Equal(r.losses, runs[0].losses),
		}
		hit, enc, res := "-", "-", "-"
		if cells[i].opts.PagedFeatures {
			row.Variant = "paged/raw"
			row.HitRate, row.EncodedBytes, row.ResidentBytes = r.feat.HitRate(), r.feat.TableBytes, r.feat.ResidentBytes
			hit, enc, res = fmtPct(row.HitRate), fmtBytes(row.EncodedBytes), fmtBytes(row.ResidentBytes)
		}
		rows = append(rows, row)
		cfg.printf("%-10s %12s %12s %12.4f %9s %12s %12s %6v\n",
			row.Variant, fmtSeconds(row.EpochTime), fmtSeconds(row.GatherTime),
			row.Losses[len(row.Losses)-1], hit, enc, res, row.BitIdentical)
	}
	return rows, nil
}

// FeatstoreFullResult reports the headline out-of-core run: the
// papers100M-shaped graph trained end-to-end through the paged feature and
// topology stores at a scale where neither the flat feature slab nor the
// CSR column array would fit in host memory.
type FeatstoreFullResult struct {
	Dataset string
	Scale   float64
	Nodes   int64
	// EdgesRequested is the spec's undirected edge-pair count at this
	// scale; EdgesStored is the directed CSR entry count the hash-defined
	// edge source realizes (~2x pairs, minus per-node probabilistic
	// rounding). Nothing is capped: the paged topology store serves the
	// full column array without materializing it.
	EdgesRequested int64
	EdgesStored    int64
	PageRows       int
	Epochs         int
	EpochTime      float64 // virtual seconds per epoch (last epoch)
	FinalLoss      float64
	HitRate        float64
	// FlatSlabBytes is the float32 slab the paged store replaces (the
	// out-of-core win: this never materializes). EncodedBytes is the
	// paged feature table's virtual bytes; ResidentBytes what the BlockCaches
	// held; CacheBudgetBytes their configured ceiling.
	FlatSlabBytes    int64
	EncodedBytes     int64
	ResidentBytes    int64
	CacheBudgetBytes int64
	// Topology accounting, mirroring the feature fields: TopoBytes is the
	// virtual column array served page-by-page (never materialized),
	// TopoResidentBytes what the topology BlockCaches held after training
	// under the TopoCacheBytes budget, TopoHitRate their page hit rate.
	TopoBytes         int64
	TopoResidentBytes int64
	TopoCacheBytes    int64
	TopoHitRate       float64
	// HostRSSBytes is the process's resident set after training (from
	// /proc/self/status); RSSUnderSlab asserts it stayed below the flat
	// feature slab plus the column array the stores avoided materializing.
	HostRSSBytes int64
	RSSUnderSlab bool
}

// FeatstoreFull trains GraphSAGE on the papers100M-shaped graph through the
// out-of-core paged stores at cfg.Scale. At scale 1.0 the flat feature slab
// would be ~57 GB of float32 (111.1 M nodes x 128 dims) and the CSR column
// array ~26 GB (3.2 B directed entries x 8 B) — neither is ever built:
// features are generated per page on demand and topology pages are decoded
// from the hash-defined edge source, both cached under per-device BlockCache
// budgets with page faults priced through the UM/PCIe model.
func FeatstoreFull(cfg Config) (*FeatstoreFullResult, error) {
	cfg = cfg.normalize()
	spec := dataset.OgbnPapers100M.Scaled(cfg.Scale)
	res := &FeatstoreFullResult{
		Dataset: spec.Name, Scale: cfg.Scale, Nodes: spec.Nodes,
		EdgesRequested: spec.Edges,
	}
	cfg.printf("Out-of-core training: %s at scale %g (%d nodes, %d edge pairs requested)\n",
		spec.Name, cfg.Scale, spec.Nodes, spec.Edges)
	ds, err := dataset.GenerateOutOfCore(spec)
	if err != nil {
		return nil, err
	}
	res.EdgesStored = ds.Topo.NumEdges()
	cfg.printf("edge source defined: %d directed CSR entries (vs %d requested pairs); feature slab of %s and column array of %s stay virtual\n",
		res.EdgesStored, res.EdgesRequested,
		fmtBytes(spec.Nodes*int64(spec.FeatDim)*4), fmtBytes(res.EdgesStored*8))

	opts := cfg.trainOpts("graphsage")
	opts.PagedFeatures = true
	opts.PagedTopo = true
	if opts.FeatPageRows == 0 {
		// Small pages keep the on-demand page fills (O(PageRows x dim)
		// host work per miss) tractable at 1e8-node scale.
		opts.FeatPageRows = 16
	}
	// Two epochs: the second revisits the first's training nodes, so the
	// BlockCache hit rates reflect steady-state reuse rather than the cold
	// first pass.
	runs, err := cfg.runGroups([]cell{{fw: FwWholeGraph, ds: ds, opts: opts, epochs: 2}}, 1)
	if err != nil {
		return nil, err
	}
	r := runs[0]
	res.Epochs = len(r.stats)
	for e, st := range r.stats {
		cfg.printf("epoch %d: loss %.4f, virtual epoch time %s\n", e+1, st.Loss, fmtSeconds(st.EpochTime))
	}
	res.EpochTime, res.FinalLoss = r.last().EpochTime, r.last().Loss
	fst := r.feat
	res.PageRows = fst.PageItems
	res.HitRate = fst.HitRate()
	res.FlatSlabBytes = spec.Nodes * int64(spec.FeatDim) * 4
	res.EncodedBytes = fst.TableBytes
	res.ResidentBytes = fst.ResidentBytes
	res.CacheBudgetBytes = fst.CacheBytes
	tst := r.topo
	res.TopoBytes = tst.TableBytes
	res.TopoResidentBytes = tst.ResidentBytes
	res.TopoCacheBytes = tst.CacheBytes
	res.TopoHitRate = tst.HitRate()
	res.HostRSSBytes = hostRSSBytes()
	avoided := res.FlatSlabBytes + res.TopoBytes
	res.RSSUnderSlab = res.HostRSSBytes > 0 && res.HostRSSBytes < avoided
	cfg.printf("features: %d rows/page, hit rate %.1f%%, resident %s of %s budget\n",
		res.PageRows, 100*res.HitRate,
		fmtBytes(res.ResidentBytes), fmtBytes(res.CacheBudgetBytes))
	cfg.printf("topology: %s virtual column array, hit rate %.1f%%, resident %s of %s budget\n",
		fmtBytes(res.TopoBytes), 100*res.TopoHitRate,
		fmtBytes(res.TopoResidentBytes), fmtBytes(res.TopoCacheBytes))
	cfg.printf("host RSS %s vs %s avoided (features + topology; under: %v)\n",
		fmtBytes(res.HostRSSBytes), fmtBytes(avoided), res.RSSUnderSlab)
	return res, nil
}

// hostRSSBytes reads the process resident set from /proc/self/status.
// Returns 0 on platforms without procfs.
func hostRSSBytes() int64 { return procStatusBytes("VmRSS:") }

// PeakRSSBytes reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status. Returns 0 on platforms without procfs.
func PeakRSSBytes() int64 { return procStatusBytes("VmHWM:") }

// procStatusBytes reads the kB field key of /proc/self/status in bytes, or
// 0 where it cannot be read.
func procStatusBytes(key string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// fmtBytes renders a byte count compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
