package sampling

import (
	"math/rand"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/topostore"
	"wholegraph/internal/xrand"
)

// Neighborhood is one sampled layer over the partitioned graph: for target
// i, Neighbors[Offsets[i]:Offsets[i+1]] are its sampled neighbor GlobalIDs.
type Neighborhood struct {
	Targets   []graph.GlobalID
	Offsets   []int64
	Neighbors []graph.GlobalID
	// EdgePos holds, per sampled neighbor, the global element index of the
	// traversed edge in the store's Col/EdgeW arrays, so edge weights can
	// be gathered for the sampled edges.
	EdgePos []int64
}

// GPUSampler is the multi-GPU sampling op of §III-C1: it runs on one device
// and reads the graph structure (row pointers and sampled neighbor IDs)
// directly from whichever GPU owns them, over NVLink, inside the sampling
// kernel. Neighbor selection uses Algorithm 1.
//
// Concurrency contract: a sampler is owned by its device's goroutine
// (sim/exec.go ownership model). It mutates only its own Rng and charges
// only its own Dev; the partitioned graph is immutable after construction.
// Samplers on distinct devices may therefore run concurrently, and each
// worker's seeded Rng stream makes the sampled neighborhoods independent of
// how the workers are scheduled.
type GPUSampler struct {
	PG  *graph.Partitioned
	Dev *sim.Device
	Rng *rand.Rand

	// scratch backs Algorithm 1 across SampleLayer calls, one workspace per
	// sampler so concurrent samplers never share memory.
	scratch Scratch
	// cols receives a paged kernel's column values (topostore reads uint64s).
	cols []uint64
	// src is the source under Rng: math/rand's own stream, with its state a
	// plain value that SaveRNG and RestoreRNG copy.
	src *xrand.Source
}

// NewGPUSampler returns a sampler for pg running on dev with the given seed.
// Rng draws the stream of rand.New(rand.NewSource(seed)).
func NewGPUSampler(pg *graph.Partitioned, dev *sim.Device, seed int64) *GPUSampler {
	src := xrand.New(seed)
	return &GPUSampler{PG: pg, Dev: dev, Rng: rand.New(src), src: src}
}

// RNGState is a saved position of a sampler's random stream.
type RNGState struct {
	rng rand.Rand
	src xrand.Source
}

// SaveRNG saves the position of the sampler's random stream into st.
func (s *GPUSampler) SaveRNG(st *RNGState) { st.rng, st.src = *s.Rng, *s.src }

// RestoreRNG rewinds the sampler's random stream to the position st saved:
// the draws after it repeat those made since SaveRNG.
func (s *GPUSampler) RestoreRNG(st *RNGState) { *s.Rng, *s.src = st.rng, st.src }

// SampleLayer samples up to fanout neighbors (without replacement) for each
// target and charges the device for one fused sampling kernel: row-pointer
// reads, the Algorithm 1 sort/chain work, and the sampled-neighbor ID reads
// with their true contiguity (full lists are read as one segment; sampled
// subsets as 8-byte random accesses).
func (s *GPUSampler) SampleLayer(targets []graph.GlobalID, fanout int) *Neighborhood {
	return s.SampleLayerInto(new(Neighborhood), targets, fanout)
}

// SampleLayerInto is SampleLayer writing into a caller-owned Neighborhood,
// truncating and reusing its slices: the steady-state loader keeps one
// Neighborhood per hop and pays no per-iteration allocation once they have
// grown to size.
func (s *GPUSampler) SampleLayerInto(nb *Neighborhood, targets []graph.GlobalID, fanout int) *Neighborhood {
	nb.Targets = targets
	if cap(nb.Offsets) < len(targets)+1 {
		nb.Offsets = make([]int64, 1, len(targets)+1)
	} else {
		nb.Offsets = nb.Offsets[:1]
	}
	nb.Offsets[0] = 0
	nb.Neighbors = nb.Neighbors[:0]
	nb.EdgePos = nb.EdgePos[:0]
	rank := s.PG.Comm.RankOfDevice(s.Dev)

	// Paged topology: neighbor IDs come from the page-aware accessor
	// instead of the materialized Col array. Decoded values are identical;
	// only the charging changes — pages are faulted to local HBM (one
	// copy-stream dance in Flush below), so every column read is a local
	// 8-byte random access instead of a possibly-remote NVLink read. The
	// kernel is then two-phase: the loop below only chooses positions —
	// they depend on the RNG and the row pointers, never on a column value —
	// and one batched Read after it fetches the values.
	var acc *topostore.Access
	if ts := s.PG.PagedTopo(); ts != nil {
		acc = ts.Begin(s.Dev)
	}
	paged := acc != nil

	var localBytes, remoteBytes, remoteSegs, sortKeys float64
	for _, t := range targets {
		// One resolve per target: the owner's row pointers and, when the
		// column array is resident, the neighbour list to index. Its
		// entries are original IDs, held in Neighbors until Owner maps
		// them all below.
		nbrs, e0, deg := s.PG.Adj(t)
		// Two rowptr reads (one 16-byte segment). RowPtr is resident
		// distributed shared memory in both modes.
		if t.Rank() == rank {
			localBytes += 16
		} else {
			remoteBytes += 16
			remoteSegs++
		}
		colLocal := paged || t.Rank() == rank
		if deg <= int64(fanout) {
			// Take all neighbors: one contiguous read of the list.
			for k := int64(0); k < deg; k++ {
				nb.EdgePos = append(nb.EdgePos, e0+k)
			}
			if !paged {
				for _, d := range nbrs {
					nb.Neighbors = append(nb.Neighbors, graph.GlobalID(d))
				}
			}
			if colLocal {
				localBytes += float64(8 * deg)
			} else {
				remoteBytes += float64(8 * deg)
				remoteSegs++
			}
		} else {
			idx := s.scratch.SampleWithoutReplacement(fanout, int(deg), s.Rng)
			sortKeys += float64(fanout)
			for _, k := range idx {
				nb.EdgePos = append(nb.EdgePos, e0+k)
				if !paged {
					nb.Neighbors = append(nb.Neighbors, graph.GlobalID(nbrs[k]))
				}
			}
			// Sampled positions are scattered inside the list: 8-byte
			// random accesses.
			if colLocal {
				localBytes += float64(8 * fanout)
			} else {
				remoteBytes += float64(8 * fanout)
				remoteSegs += float64(fanout)
			}
		}
		nb.Offsets = append(nb.Offsets, int64(len(nb.EdgePos)))
	}

	// Map the original IDs to GlobalIDs in one pass, where the Owner loads
	// are independent of each other and overlap.
	if !paged {
		for i, v := range nb.Neighbors {
			nb.Neighbors[i] = s.PG.Owner[v]
		}
	}

	// Read the chosen positions — which touches their pages in position
	// order — and fault the pages this kernel missed (no-op when everything
	// is resident); the sampling kernel below starts after the migration.
	if paged {
		if cap(s.cols) < len(nb.EdgePos) {
			s.cols = make([]uint64, len(nb.EdgePos))
		}
		cols := s.cols[:len(nb.EdgePos)]
		acc.Read(nb.EdgePos, cols)
		for _, d := range cols {
			nb.Neighbors = append(nb.Neighbors, graph.GlobalID(d))
		}
		acc.Flush("sample")
	}

	seg := 8.0
	if remoteSegs > 0 {
		seg = remoteBytes / remoteSegs
	}
	// Algorithm 1 work: the radix sort of packed 64-bit keys dominates;
	// 8 LSD passes read+write 8 bytes per key each.
	sortBytes := sortKeys * 8 * 2 * 8
	s.Dev.Kernel(sim.KernelCost{
		RandBytes:      localBytes,
		RemoteBytes:    remoteBytes,
		RemoteSegBytes: seg,
		StreamBytes:    sortBytes + float64(8*len(nb.Neighbors)),
		Tag:            "sample",
	})
	return nb
}

// Fanouts applies SampleLayer per hop: hop l samples fanouts[l] neighbors
// of the frontier produced by hop l-1. The caller is responsible for
// deduplication between hops (see the AppendUnique op).
func (s *GPUSampler) Fanouts(targets []graph.GlobalID, fanouts []int,
	frontier func(nb *Neighborhood) []graph.GlobalID) []*Neighborhood {
	out := make([]*Neighborhood, 0, len(fanouts))
	cur := targets
	for _, f := range fanouts {
		nb := s.SampleLayer(cur, f)
		out = append(out, nb)
		cur = frontier(nb)
	}
	return out
}
