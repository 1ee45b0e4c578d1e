// Package unique implements the AppendUnique op of §III-C2: it appends
// sampled neighbor nodes to the target-node list while removing duplicates,
// producing the contiguous sub-graph IDs that the gathered feature matrix
// and the CSR sub-graph are indexed by.
//
// Like the paper (which adapts the warpcore GPU hash table), duplicates are
// eliminated with an open-addressing hash table rather than a sort: target
// nodes are inserted first with their list index as value, neighbors are
// inserted with value -1, then the -1 entries are counted per bucket, an
// exclusive prefix sum over the bucket counts yields each bucket's first
// neighbor ID, and neighbor IDs are assigned bucket-contiguously after the
// targets. The op also emits the per-node duplicate count that the g-SpMM
// backward uses to replace atomic adds with plain stores (§III-C4).
package unique

import (
	"fmt"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
)

// bucketSlots is the number of hash-table slots per bucket for the
// prefix-sum ID assignment (warpcore uses warp-sized groups; the exact
// value only shifts constant factors).
const bucketSlots = 128

// emptySlot marks a free table slot. Slots store the complement of the
// GlobalID, so that the free marker is zero and refilling the table is one
// memclr; the all-ones GlobalID is the one value the table cannot hold.
const emptySlot = 0

// Result of an AppendUnique op.
type Result struct {
	// Unique lists the sub-graph's nodes: the targets first, in their
	// original order, then each distinct new neighbor exactly once.
	Unique []graph.GlobalID
	// NumTargets is the length of the target prefix of Unique.
	NumTargets int
	// NeighborSubID maps each input neighbor position to its sub-graph ID
	// (an index into Unique).
	NeighborSubID []int32
	// DupCount[id] is how many times Unique[id] was sampled as a neighbor;
	// nodes sampled exactly once (or targets never sampled) allow the
	// atomic-free backward store optimization.
	DupCount []int32
}

// table is the GPU-style open-addressing hash table.
type table struct {
	keys   []uint64
	vals   []int32
	mask   uint64
	probes int64
}

// tableSize returns the table size for the given element capacity: the
// smallest power of two >= 2*capacity, floored at one bucket. The size is a
// pure function of capacity so a Deduper reusing old backing arrays builds
// a table identical to a fresh one — table size determines bucket layout
// and therefore the sub-graph ID order, which must not depend on reuse.
func tableSize(capacity int) int {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	if size < bucketSlots {
		size = bucketSlots
	}
	return size
}

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// insert returns the slot of key, inserting it with value v if absent.
// found reports whether the key was already present.
func (t *table) insert(key uint64, v int32) (slot int, found bool) {
	i := hash64(key) & t.mask
	stored := ^key
	for {
		t.probes++
		switch t.keys[i] {
		case stored:
			return int(i), true
		case emptySlot:
			t.keys[i] = stored
			t.vals[i] = v
			return int(i), false
		}
		i = (i + 1) & t.mask
	}
}

// Deduper is a reusable AppendUnique workspace: the hash table's key/value
// arrays, the per-position slot record and the Result buffers all persist
// across calls, so the steady-state sampling loop pays no allocation for
// deduplication after warm-up. A Deduper is owned by one goroutine (one per
// training worker / serving replica under sim.RunParallel) and the Result it
// returns is only valid until its next AppendUnique call.
//
// Reuse is invisible in the output: the table size (and hence the
// bucket-contiguous ID order) is a pure function of the input sizes, keys
// are cleared to the empty marker before every call, and values are only
// ever read from slots whose key was inserted this call.
type Deduper struct {
	keys  []uint64
	vals  []int32
	slots []int32
	res   Result
}

// NewDeduper returns an empty workspace; buffers grow on first use.
func NewDeduper() *Deduper { return &Deduper{} }

// AppendUnique deduplicates neighbors against the targets and each other.
// Target IDs must be distinct (training batches and per-hop frontiers are);
// it panics otherwise. dev may be nil to skip cost accounting. The result
// is overwritten by the next call on this Deduper.
func (d *Deduper) AppendUnique(dev *sim.Device, targets, neighbors []graph.GlobalID) *Result {
	size := tableSize(len(targets) + len(neighbors))
	if cap(d.keys) < size {
		d.keys = make([]uint64, size)
		d.vals = make([]int32, size)
	}
	t := &table{keys: d.keys[:size], vals: d.vals[:size], mask: uint64(size - 1)}
	clear(t.keys)

	total := len(targets) + len(neighbors)
	res := &d.res
	if cap(res.Unique) < total {
		res.Unique = make([]graph.GlobalID, total)
	}
	res.Unique = res.Unique[:len(targets)]
	res.NumTargets = len(targets)
	if cap(res.NeighborSubID) < len(neighbors) {
		res.NeighborSubID = make([]int32, len(neighbors))
	}
	res.NeighborSubID = res.NeighborSubID[:len(neighbors)]

	// Phase 1: insert targets with their list index as value.
	for i, g := range targets {
		if _, found := t.insert(uint64(g), int32(i)); found {
			panic(fmt.Sprintf("unique: duplicate target %v at position %d", g, i))
		}
		res.Unique[i] = g
	}

	// Phase 2: insert neighbors with value -1; remember each input
	// position's slot for the final ID lookup.
	if cap(d.slots) < len(neighbors) {
		d.slots = make([]int32, len(neighbors))
	}
	slots := d.slots[:len(neighbors)]
	for i, g := range neighbors {
		slot, _ := t.insert(uint64(g), -1)
		slots[i] = int32(slot)
	}

	// Phase 3: assign neighbor IDs bucket-contiguously after the targets and
	// emit the unique list. The GPU counts the -1 values per bucket, takes an
	// exclusive prefix sum and numbers each bucket's entries from its offset;
	// buckets are consecutive slot ranges, so that order is ascending slot
	// order, and one scan of the table assigns and emits together.
	base := int32(len(targets))
	next := base
	res.Unique = res.Unique[:total]
	for s, k := range t.keys {
		if k != emptySlot && t.vals[s] == -1 {
			t.vals[s] = next
			res.Unique[next] = graph.GlobalID(^k)
			next++
		}
	}
	res.Unique = res.Unique[:next]

	// Phase 4: the per-position sub-graph IDs and duplicate counts.
	if cap(res.DupCount) < len(res.Unique) {
		res.DupCount = make([]int32, len(res.Unique))
	}
	res.DupCount = res.DupCount[:len(res.Unique)]
	clear(res.DupCount)
	for i := range neighbors {
		id := t.vals[slots[i]]
		res.NeighborSubID[i] = id
		res.DupCount[id]++
	}

	if dev != nil {
		// Hash probes are 16-byte random accesses (key+value); the bucket
		// count and prefix sum stream the table twice.
		dev.Kernel(sim.KernelCost{
			RandBytes:   float64(16 * t.probes),
			StreamBytes: float64(2 * 12 * int64(len(t.keys))),
			Tag:         "appendunique",
		})
	}
	return res
}

// AppendUnique is the one-shot form: a fresh workspace per call, returning
// a Result the caller owns. Steady-state loops should hold a Deduper
// instead.
func AppendUnique(dev *sim.Device, targets, neighbors []graph.GlobalID) *Result {
	var d Deduper
	return d.AppendUnique(dev, targets, neighbors)
}
