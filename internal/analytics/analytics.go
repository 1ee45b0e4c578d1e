// Package analytics implements classic sparse graph algorithms over the
// multi-GPU shared-memory store, validating the paper's closing claim that
// "considering the multi-GPU platform as a distributed shared memory
// architecture is also appropriate for other sparse graph computing
// patterns" (§I). Each rank iterates over its own node partition and reads
// neighbor state directly from the other GPUs' memory through peer access,
// with per-iteration barriers — the same pattern as GNN message passing,
// minus the neural network.
package analytics

import (
	"fmt"
	"math"

	"wholegraph/internal/graph"
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

// PageRankResult holds the converged ranks and run statistics.
type PageRankResult struct {
	// Rank[v] is node v's PageRank (original ID order); ranks sum to 1.
	Rank []float64
	// Iterations until the L1 delta fell below the tolerance.
	Iterations int
	// Time is the virtual seconds the computation took.
	Time float64
}

// PageRank runs power iteration with damping d over the partitioned graph
// until the L1 change falls below tol (or maxIter). Dangling mass is
// redistributed uniformly. Ranks live in two ping-pong shared tables; each
// rank processes its own nodes, pulling the previous ranks of in-neighbors
// — here approximated by out-neighbors since the stored graphs are
// undirected (every edge appears in both directions).
func PageRank(pg *graph.Partitioned, d float64, tol float64, maxIter int) (*PageRankResult, error) {
	if d <= 0 || d >= 1 {
		return nil, fmt.Errorf("analytics: damping %g outside (0,1)", d)
	}
	if pg.PagedTopo() != nil {
		return nil, fmt.Errorf("analytics: PageRank sweeps whole edge shards and requires a materialized column array (not the paged topology store)")
	}
	comm := pg.Comm
	devs := comm.Devs
	n := pg.N
	start := machineTime(devs)

	sizes := make([]int64, comm.Size())
	for r := range sizes {
		sizes[r] = pg.LocalCount(r)
	}
	cur := wholemem.AllocSharded[float32](comm, sizes)
	next := wholemem.AllocSharded[float32](comm, sizes)
	for i := int64(0); i < n; i++ {
		cur.Set(i, float32(1/float64(n)))
	}

	// contrib[v] = rank[v]/outdeg[v], precomputed per iteration.
	res := &PageRankResult{}
	for it := 0; it < maxIter; it++ {
		// Dangling mass (degree-0 nodes) redistributes uniformly.
		var dangling float64
		for r := 0; r < comm.Size(); r++ {
			rp := pg.RowPtr.Shard(r)
			shard := cur.Shard(r)
			for li := range shard {
				if rp[li+1] == rp[li] {
					dangling += float64(shard[li])
				}
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)

		// Jacobi iteration: every rank reads the frozen cur table and
		// writes only its own shard of next, so the ranks run on real
		// goroutines; per-rank deltas are summed in rank order after the
		// join for a deterministic reduction.
		deltas := make([]float64, len(devs))
		sim.RunParallel(len(devs), func(r int) {
			dev := devs[r]
			out := next.Shard(r)
			in := cur.Shard(r)
			var remoteElems, localElems int64
			for li := range out {
				var sum float64
				nbrs, _, _ := pg.Adj(graph.MakeGlobalID(r, int64(li)))
				for _, v := range nbrs {
					g := pg.Owner[v]
					// Pull the neighbor's contribution: its current rank
					// divided by its degree.
					nr := float64(cur.Shard(g.Rank())[g.Local()])
					deg := pg.RowPtr.Shard(g.Rank())[g.Local()+1] - pg.RowPtr.Shard(g.Rank())[g.Local()]
					if deg > 0 {
						sum += nr / float64(deg)
					}
					if g.Rank() == r {
						localElems += 3 // rank + two rowptr entries
					} else {
						remoteElems += 3
					}
				}
				v := base + d*sum
				out[li] = float32(v)
				deltas[r] += math.Abs(v - float64(in[li]))
			}
			// One pull kernel per rank per iteration: neighbor ranks and
			// degrees are 4-8 byte scattered reads.
			cur.ChargeAccess(dev, localElems, remoteElems, 8, "pagerank")
		})
		var delta float64
		for _, dr := range deltas {
			delta += dr
		}
		sim.Barrier(devs)
		cur, next = next, cur
		res.Iterations = it + 1
		if delta < tol {
			break
		}
	}

	res.Rank = make([]float64, n)
	for v := int64(0); v < n; v++ {
		gid := pg.Owner[v]
		res.Rank[v] = float64(cur.Shard(gid.Rank())[gid.Local()])
	}
	res.Time = machineTime(devs) - start
	return res, nil
}

// CCResult holds connected-component labels and run statistics.
type CCResult struct {
	// Label[v] is the smallest original node ID in v's component.
	Label      []int64
	Components int
	Iterations int
	Time       float64
}

// ConnectedComponents runs label propagation (each node repeatedly adopts
// the minimum label in its closed neighborhood) over the shared store until
// a fixpoint. On the undirected evaluation graphs this converges to the
// connected components.
//
// Unlike PageRank's Jacobi sweep, this propagation is deliberately
// Gauss-Seidel: a rank reads labels other ranks may have lowered earlier in
// the same iteration, which roughly halves the iterations to the fixpoint.
// That makes the per-rank loop order-dependent, so it stays serial — the
// deterministic-parallel ownership model (internal/sim/exec.go) requires
// shared state to be frozen between barriers.
func ConnectedComponents(pg *graph.Partitioned, maxIter int) (*CCResult, error) {
	if pg.PagedTopo() != nil {
		return nil, fmt.Errorf("analytics: connected components sweeps whole edge shards and requires a materialized column array (not the paged topology store)")
	}
	comm := pg.Comm
	devs := comm.Devs
	n := pg.N
	start := machineTime(devs)

	sizes := make([]int64, comm.Size())
	for r := range sizes {
		sizes[r] = pg.LocalCount(r)
	}
	cur := wholemem.AllocSharded[int64](comm, sizes)
	for v := int64(0); v < n; v++ {
		gid := pg.Owner[v]
		cur.Shard(gid.Rank())[gid.Local()] = v
	}

	res := &CCResult{}
	for it := 0; it < maxIter; it++ {
		changed := false
		for r, dev := range devs {
			labels := cur.Shard(r)
			var remoteElems, localElems int64
			for li := range labels {
				best := labels[li]
				nbrs, _, _ := pg.Adj(graph.MakeGlobalID(r, int64(li)))
				for _, v := range nbrs {
					g := pg.Owner[v]
					if l := cur.Shard(g.Rank())[g.Local()]; l < best {
						best = l
					}
					if g.Rank() == r {
						localElems++
					} else {
						remoteElems++
					}
				}
				if best < labels[li] {
					labels[li] = best
					changed = true
				}
			}
			cur.ChargeAccess(dev, localElems, remoteElems, 8, "cc")
		}
		sim.Barrier(devs)
		res.Iterations = it + 1
		if !changed {
			break
		}
	}

	res.Label = make([]int64, n)
	roots := map[int64]bool{}
	for v := int64(0); v < n; v++ {
		gid := pg.Owner[v]
		res.Label[v] = cur.Shard(gid.Rank())[gid.Local()]
		roots[res.Label[v]] = true
	}
	res.Components = len(roots)
	res.Time = machineTime(devs) - start
	return res, nil
}

func machineTime(devs []*sim.Device) float64 {
	t := 0.0
	for _, d := range devs {
		if d.Now() > t {
			t = d.Now()
		}
	}
	return t
}
