// Package cache implements a static hot-node feature cache, the
// "computation-aware caching" idea of PaGraph that the paper discusses in
// its related work (§V) and an extension point for WholeGraph: each GPU
// keeps copies of the most frequently sampled nodes' feature rows in its
// own HBM, so gathers for those rows skip NVLink entirely.
//
// The cache is static and degree-ordered: under neighbor sampling, a node's
// probability of appearing in a batch grows with its in-degree, so caching
// the highest-degree nodes maximizes the expected hit rate (PaGraph's exact
// policy). On the NVSwitch-connected DGX the paper targets, remote HBM is
// only ~2-5x slower than local for feature-sized rows, so caching is a
// modest win there — but the same store on PCIe-class hardware (or the
// pinned-host backing) benefits enormously, which the ablation shows. Over
// the paged feature store (internal/featstore) the cache matters most: a
// row hit skips the store entirely, avoiding a possible Unified-Memory
// page fault.
package cache

import (
	"fmt"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
)

// FeatureCache caches hot feature rows of a partitioned graph in one
// device's local memory, in front of whatever feature source backs the
// graph.
type FeatureCache struct {
	PG  *graph.Partitioned
	Dev *sim.Device

	src graph.FeatureSource
	// slot[row] is the position of feature row `row` in slab (in rows of
	// PG.Dim elements), or -1 when the row is not cached. The index is dense
	// over the graph's rows, so a lookup is one load and the cached copies
	// are one allocation.
	slot []int32
	slab []float32
	size int
	// Hits and Misses count row lookups since construction.
	Hits, Misses int64

	// Delegation scratch for the unranked-source path, reused across
	// gathers (the cache belongs to one worker goroutine, like the
	// loader's slot ring).
	missRows []int64
	missIdx  []int
	missBuf  []float32
}

// NewDegreeCache builds a cache of the capacityRows highest-degree nodes
// (pg.DegreeOrder: ties broken by node ID — under neighbor sampling a node's
// chance of appearing in a batch grows with its degree), copying their rows
// into the device's local memory and charging that one-time fill. Rows homed
// on the device are not cached when the source is ranked (they are free
// anyway); over an unranked source (the paged store) every row is cacheable,
// since no row is local.
func NewDegreeCache(pg *graph.Partitioned, dev *sim.Device, capacityRows int) (*FeatureCache, error) {
	src := pg.Features()
	if src == nil {
		return nil, fmt.Errorf("cache: graph has no features")
	}
	rank := pg.Comm.RankOfDevice(dev)
	if rank < 0 {
		return nil, fmt.Errorf("cache: device %d not in the graph's communicator", dev.ID)
	}
	c := &FeatureCache{PG: pg, Dev: dev, src: src, slot: make([]int32, pg.N)}
	for i := range c.slot {
		c.slot[i] = -1
	}
	_, isRanked := src.(graph.RankedFeatures)

	var fill []int64
	for _, v := range pg.DegreeOrder() {
		if len(fill) >= capacityRows {
			break
		}
		gid := pg.Owner[v]
		if isRanked && gid.Rank() == rank {
			continue // local rows need no cache
		}
		row := pg.FeatRow(gid)
		c.slot[row] = int32(len(fill))
		fill = append(fill, row)
	}
	// One-time fill: a bulk gather through the source (remote HBM for the
	// slab, page-ins for the paged store) plus the local store.
	c.size = len(fill)
	c.slab = make([]float32, len(fill)*pg.Dim)
	if len(fill) > 0 {
		src.GatherRows(dev, fill, pg.Dim, c.slab, "cache.fill")
	}
	return c, nil
}

// Size returns the number of cached rows.
func (c *FeatureCache) Size() int { return c.size }

// Contains reports whether the given feature row is cached.
func (c *FeatureCache) Contains(row int64) bool { return c.slot[row] >= 0 }

// cached returns the cached copy of row, or nil.
func (c *FeatureCache) cached(row int64, dim int) []float32 {
	at := int(c.slot[row])
	if at < 0 {
		return nil
	}
	return c.slab[at*dim : (at+1)*dim]
}

// HitRate returns the fraction of lookups served from the cache.
func (c *FeatureCache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// GatherRows gathers feature rows like FeatureSource.GatherRows, charging
// the cache's device, serving cached rows from local memory and falling
// through to the backing source for the rest.
//
// Over a ranked source (the wholemem slab) one kernel is charged with the
// true local/remote split — exactly the historical cost. Over an unranked
// source the cache copies its hits locally and delegates the residual rows
// to the source in one gather, which applies its own (page-fault-aware)
// pricing.
func (c *FeatureCache) GatherRows(rows []int64, dim int, dst []float32, tag string) float64 {
	return c.GatherRowsOn(c.Dev, rows, dim, dst, tag)
}

// GatherRowsOn is GatherRows charging dev, which must be the cache's device
// or a staging twin of it (the loader's run-ahead builds).
func (c *FeatureCache) GatherRowsOn(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64 {
	if dev.Real() != c.Dev {
		panic(fmt.Sprintf("cache: gather on device %d through the cache of device %d", dev.ID, c.Dev.ID))
	}
	if dim != c.PG.Dim {
		panic(fmt.Sprintf("cache: dim %d != feature dim %d", dim, c.PG.Dim))
	}
	if len(dst) < len(rows)*dim {
		panic("cache: dst too small")
	}
	if ranked, ok := c.src.(graph.RankedFeatures); ok {
		return c.gatherRanked(dev, ranked, rows, dim, dst, tag)
	}
	return c.gatherDelegate(dev, rows, dim, dst, tag)
}

func (c *FeatureCache) gatherRanked(dev *sim.Device, src graph.RankedFeatures, rows []int64, dim int, dst []float32, tag string) float64 {
	rank := c.PG.Comm.RankOfDevice(dev)
	var localElems, remoteElems int64
	for i, row := range rows {
		out := dst[i*dim : (i+1)*dim]
		if buf := c.cached(row, dim); buf != nil {
			copy(out, buf)
			c.Hits++
			localElems += int64(dim)
			continue
		}
		src.ReadRow(row, out)
		if src.HomeRank(row) == rank {
			c.Hits++ // local rows are as good as cached
			localElems += int64(dim)
		} else {
			c.Misses++
			remoteElems += int64(dim)
		}
	}
	return dev.Kernel(sim.KernelCost{
		RandBytes:      float64(4 * localElems),
		RemoteBytes:    float64(4 * remoteElems),
		RemoteSegBytes: float64(4 * dim),
		StreamBytes:    float64(4 * len(rows) * dim),
		Tag:            tag,
	})
}

func (c *FeatureCache) gatherDelegate(dev *sim.Device, rows []int64, dim int, dst []float32, tag string) float64 {
	c.missRows = c.missRows[:0]
	c.missIdx = c.missIdx[:0]
	var localElems int64
	for i, row := range rows {
		if buf := c.cached(row, dim); buf != nil {
			copy(dst[i*dim:(i+1)*dim], buf)
			c.Hits++
			localElems += int64(dim)
			continue
		}
		c.Misses++
		c.missRows = append(c.missRows, row)
		c.missIdx = append(c.missIdx, i)
	}
	var total float64
	if len(c.missRows) > 0 {
		need := len(c.missRows) * dim
		if cap(c.missBuf) < need {
			c.missBuf = make([]float32, need)
		}
		c.missBuf = c.missBuf[:need]
		total += c.src.GatherRows(dev, c.missRows, dim, c.missBuf, tag)
		for k, i := range c.missIdx {
			copy(dst[i*dim:(i+1)*dim], c.missBuf[k*dim:(k+1)*dim])
		}
	}
	if localElems > 0 {
		// The cache-served rows: one local HBM read/write pass.
		total += dev.Kernel(sim.KernelCost{
			RandBytes:   float64(4 * localElems),
			StreamBytes: float64(4 * localElems),
			Tag:         tag,
		})
	}
	return total
}

// MemoryBytes returns the device memory the cache occupies.
func (c *FeatureCache) MemoryBytes() int64 {
	return int64(len(c.slab)) * 4
}
