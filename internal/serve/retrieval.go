package serve

import (
	"fmt"

	"wholegraph/internal/ann"
	"wholegraph/internal/sim"
)

// The retrieval workload: requests are top-K nearest-neighbor queries over
// an ann.Index of GNN embeddings, flowing through the same generator,
// router, and per-replica dynamic batcher as inference. A batch stages its
// unique query vectors out of the shared embedding table on the copy
// stream (overlapping the previous batch's search on the compute stream),
// then answers all of them in one batched HNSW search kernel. Each served
// request reports recall@K against the exact brute-force oracle, which is
// precomputed host-side for the trace's unique nodes before the parallel
// serving region — replicas only read it.

// NewRetrieval builds a retrieval deployment over a built ANN index: one
// replica per device of the index's communicator. The model/loader/cache
// serving chain is absent — batches execute against the index — so
// inference-only options (Fanouts, CacheRows, paged features) are ignored.
func NewRetrieval(ix *ann.Index, opts Options) (*Server, error) {
	opts = opts.Normalize()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ix == nil || ix.N() == 0 {
		return nil, fmt.Errorf("serve: retrieval needs a non-empty ANN index")
	}
	if opts.TopK > ix.N() {
		return nil, fmt.Errorf("serve: TopK %d exceeds index size %d", opts.TopK, ix.N())
	}
	s := &Server{Opts: opts, index: ix}
	for r, dev := range ix.Comm().Devs {
		s.replicas = append(s.replicas, &replica{id: r, dev: dev, srv: s})
	}
	return s, nil
}

// Index returns the ANN index of a retrieval deployment (nil for
// inference).
func (s *Server) Index() *ann.Index { return s.index }

// buildOracle precomputes the exact top-K answer for every distinct node
// the trace requests, host-side and uncharged (it is measurement
// apparatus, not served work). Runs before the replicas start so the map
// is read-only during the parallel region.
func (s *Server) buildOracle(trace []*Request) {
	uniq := make([]int64, 0, len(trace))
	seen := make(map[int64]bool, len(trace))
	for _, q := range trace {
		if !seen[q.Node] {
			seen[q.Node] = true
			uniq = append(uniq, q.Node)
		}
	}
	exact := s.index.ExactNodes(uniq, s.Opts.TopK)
	s.oracle = make(map[int64][]ann.Result, len(uniq))
	for i, node := range uniq {
		s.oracle[node] = exact[i]
	}
}

// runRetrievalBatch executes one retrieval batch launched at tStart and
// returns its completion time: gather the unique query rows on the copy
// stream, one batched HNSW search kernel plus a streaming result writeback
// on the compute stream. Duplicate nodes are coalesced like inference.
func (r *replica) runRetrievalBatch(batch []*Request, tStart float64) float64 {
	dev := r.dev
	ix := r.srv.index
	o := r.srv.Opts
	ids, reqSlot := r.dedupe(batch)

	// Stage the unique query vectors from the shared embedding table on
	// the copy stream, idled to the launch decision.
	prev := dev.SetStream(sim.StreamCopy)
	dev.IdleUntil(tStart)
	need := len(ids) * ix.Dim()
	if cap(r.qbuf) < need {
		r.qbuf = make([]float32, need)
	}
	q := r.qbuf[:need]
	ix.GatherQueries(dev, ids, q)
	gatherDone := dev.Now()
	dev.SetStream(prev)

	// One batched search kernel on the compute stream, gated on the
	// gather, then a streaming writeback of (id, dist) pairs.
	dev.IdleUntil(gatherDone)
	res := ix.SearchMany(dev, q, o.TopK, o.EfSearch)
	dev.Kernel(sim.KernelCost{
		StreamBytes: float64(12 * len(ids) * o.TopK),
		Tag:         "serve.topk",
	})
	done := dev.Now()

	for i, req := range batch {
		req.Outcome = OutcomeServed
		req.Start = tStart
		req.Done = done
		req.Batch = r.batches
		req.BatchSize = len(batch)
		req.Recall = ann.Recall(res[reqSlot[i]], r.srv.oracle[req.Node])
	}
	r.batches++
	r.targets += len(ids)
	return done
}
