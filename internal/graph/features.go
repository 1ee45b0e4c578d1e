package graph

import (
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

// FeatureSource abstracts the node-feature table behind the partitioned
// graph. The historical backing is a flat *wholemem.Memory[float32] slab
// sharded across the GPUs (the paper's design); the paged feature store
// (internal/featstore) provides an out-of-core alternative whose rows are
// decoded from compressed host-resident pages on demand. Consumers — the
// batch loader, the hot-node cache, inference, serving — gather through
// this interface and never see which backing is installed.
type FeatureSource interface {
	// NumRows is the number of feature rows (== the graph's node count).
	NumRows() int64
	// Dim is the feature dimension.
	Dim() int
	// GatherRows reads len(rows) feature rows into dst (row-major,
	// len(rows)*Dim elements), charging dev's current stream, and returns
	// the charged virtual seconds. Row indices are global feature-row
	// indices (Partitioned.FeatRow).
	GatherRows(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64
}

// RankedFeatures is implemented by feature sources whose rows have a home
// rank (the wholemem slab: a row lives in its owner GPU's HBM). The
// hot-node cache uses it to split gathers into local and remote traffic;
// sources without placement (the paged host store) don't implement it and
// take the cache's delegating path instead.
type RankedFeatures interface {
	FeatureSource
	// HomeRank returns the communicator rank whose local memory holds row.
	HomeRank(row int64) int
	// ReadRow copies one row into dst without charging any device: the
	// hot-node cache reads the rows of a gather it prices itself.
	ReadRow(row int64, dst []float32)
}

// memFeats adapts the sharded wholemem slab to FeatureSource. Charging is
// exactly Memory.GatherRows, so installing the adapter changes no costs.
type memFeats struct {
	mem *wholemem.Memory[float32]
	n   int64
	dim int
}

// MemFeatures wraps a sharded feature slab (n rows by dim) as a
// FeatureSource. Layout.Map installs it over the slab; exported for tests
// and for callers that build feature tables by hand.
func MemFeatures(mem *wholemem.Memory[float32], n int64, dim int) FeatureSource {
	return &memFeats{mem: mem, n: n, dim: dim}
}

func (f *memFeats) NumRows() int64 { return f.n }
func (f *memFeats) Dim() int       { return f.dim }

func (f *memFeats) GatherRows(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64 {
	return f.mem.GatherRows(dev, rows, dim, dst, tag)
}

func (f *memFeats) ReadRow(row int64, dst []float32) {
	f.mem.ReadRow(row, dst[:f.dim])
}

func (f *memFeats) HomeRank(row int64) int {
	return f.mem.RankOf(row * int64(f.dim))
}

// Features returns the installed feature source, or nil for a
// structure-only graph.
func (p *Partitioned) Features() FeatureSource { return p.featSrc }

// SetFeatures installs a feature source (the paged store path). The source
// must have N rows of Dim elements; Feat stays nil — wholemem-specific
// consumers (the storage ablation, Fig10's raw-slab gathers) require the
// slab backing and must not be pointed at a paged store.
func (p *Partitioned) SetFeatures(fs FeatureSource) { p.featSrc = fs }

// RowOrig maps a global feature-row index back to the original node ID
// (the inverse of FeatRow ∘ Owner).
func (p *Partitioned) RowOrig(row int64) int64 {
	// rowBase is ascending; ranks are few (GPUs per node), linear scan.
	r := len(p.rowBase) - 1
	for r > 0 && p.rowBase[r] > row {
		r--
	}
	return p.Orig[r][row-p.rowBase[r]]
}
