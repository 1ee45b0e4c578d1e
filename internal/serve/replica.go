package serve

import (
	"math"

	"wholegraph/internal/autograd"
	"wholegraph/internal/cache"
	"wholegraph/internal/core"
	"wholegraph/internal/gnn"
	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// Outcome records what happened to one request.
type Outcome uint8

const (
	// OutcomeServed: the request was batched, executed and answered.
	OutcomeServed Outcome = iota
	// OutcomeShed: the replica's queue was full at arrival (load
	// shedding; the client sees an immediate rejection).
	OutcomeShed
	// OutcomeTimedOut: the request was admitted but its deadline passed
	// before its batch launched, so it was dropped unexecuted.
	OutcomeTimedOut
)

func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeShed:
		return "shed"
	case OutcomeTimedOut:
		return "timeout"
	}
	return "unknown"
}

// Request is one node-inference request. The generator fills ID, Node and
// Arrival; routing fills Replica; serving fills the rest. All times are
// virtual seconds.
type Request struct {
	ID      int     `json:"id"`
	Node    int64   `json:"node"`
	Arrival float64 `json:"arrival"`
	Replica int     `json:"replica"`

	Outcome Outcome `json:"outcome"`
	// Start and Done are the batch launch and completion times of a
	// served request (zero otherwise).
	Start float64 `json:"start,omitempty"`
	Done  float64 `json:"done,omitempty"`
	// Batch is the replica-local sequence number of the serving batch,
	// BatchSize how many requests it coalesced (including this one).
	Batch     int `json:"batch,omitempty"`
	BatchSize int `json:"batch_size,omitempty"`
	// Class is the predicted class of a served request.
	Class int32 `json:"class,omitempty"`
}

// Latency returns the request's response latency (served requests only).
func (q *Request) Latency() float64 { return q.Done - q.Arrival }

// replica is one serving worker: a GPU, its model copy, loader and
// optional cache. Between sim.RunParallel barriers a replica (and its
// device, both streams) is owned by exactly one goroutine.
type replica struct {
	id     int
	srv    *Server
	dev    *sim.Device
	model  gnn.Model
	loader *core.Loader
	cache  *cache.FeatureCache
	tape   *autograd.Tape

	// Serving stats, filled by serve.
	batches int
	targets int // unique seed nodes executed (<= requests served)

	// scratch reused across batches.
	queue     []*Request
	batchReqs []*Request
	ids       []int64
	reqSlot   []int
}

// dedupe coalesces a batch's duplicate seed nodes: ids is the unique node
// list in first-come order, reqSlot maps each request to its node's slot.
// Both alias replica scratch, valid until the next batch.
func (r *replica) dedupe(batch []*Request) ([]int64, []int) {
	ids := r.ids[:0]
	reqSlot := r.reqSlot[:0]
	for _, q := range batch {
		at := -1
		for i, v := range ids {
			if v == q.Node {
				at = i
				break
			}
		}
		if at < 0 {
			at = len(ids)
			ids = append(ids, q.Node)
		}
		reqSlot = append(reqSlot, at)
	}
	r.ids, r.reqSlot = ids, reqSlot
	return ids, reqSlot
}

// serve runs the replica's whole request stream to completion. reqs are
// the requests routed to this replica in arrival order. The loop is a
// two-event discrete simulation: the next pending arrival vs the next
// batch formation; whichever is earlier in virtual time happens first.
//
// A batch forms when the replica can launch it: its trigger — MaxBatch
// requests waiting, or the oldest waiting request having waited MaxDelay —
// has fired, the copy stream has finished the previous batch's build, and
// the loader ring slot it will overwrite has been released by the forward
// two batches back. The build is charged to the copy stream and the
// forward to the compute stream, so batch b+1's sample/dedup/gather
// overlaps batch b's forward exactly like the training pipeline.
func (r *replica) serve(reqs []*Request) {
	o := r.srv.Opts
	// The waiting requests are queue[head:], a window sliding over one
	// backing array of QueueCap entries (kept across runs) that moves back
	// to the front when it reaches the end.
	if cap(r.queue) < o.QueueCap {
		r.queue = make([]*Request, 0, o.QueueCap)
	}
	queue, head := r.queue[:0], 0
	// slotDone[p] is the completion time of the forward that last
	// consumed loader ring slot p; a build into that slot must wait for
	// it (the two-slot ring of core.Loader).
	var slotDone [2]float64
	slot := 0
	copyFree := 0.0
	next := 0 // next arrival index

	for next < len(reqs) || head < len(queue) {
		waiting := queue[head:]
		tForm := math.Inf(1)
		if len(waiting) > 0 {
			trigger := waiting[0].Arrival + o.MaxDelay
			if len(waiting) >= o.MaxBatch {
				if t := waiting[o.MaxBatch-1].Arrival; t < trigger {
					trigger = t
				}
			}
			tForm = math.Max(trigger, math.Max(copyFree, slotDone[slot]))
		}
		if next < len(reqs) && reqs[next].Arrival < tForm {
			q := reqs[next]
			next++
			if len(waiting) >= o.QueueCap {
				q.Outcome = OutcomeShed
				continue
			}
			if len(queue) == cap(queue) {
				queue, head = queue[:copy(queue, waiting)], 0
			}
			queue = append(queue, q)
			continue
		}

		// Form the batch at tForm: drop requests whose deadline already
		// passed, then take up to MaxBatch of the rest, oldest first.
		batch := r.batchReqs[:0]
		for head < len(queue) && len(batch) < o.MaxBatch {
			q := queue[head]
			head++
			if o.Deadline > 0 && q.Arrival+o.Deadline < tForm {
				q.Outcome = OutcomeTimedOut
				continue
			}
			batch = append(batch, q)
		}
		r.batchReqs = batch
		if len(batch) == 0 {
			continue // everything expired; the loop re-evaluates
		}
		done := r.runBatch(batch, tForm)
		slotDone[slot] = done
		slot ^= 1
		copyFree = r.dev.StreamNow(sim.StreamCopy)
	}
}

// runBatch executes one batch launched at tStart and returns its
// completion time. tStart already accounts for the copy stream being free
// and the loader ring slot having been released (see serve). Duplicate
// seed nodes are coalesced: the sampled gather and forward run once per
// unique node, and every request for that node shares the result (and the
// completion time).
func (r *replica) runBatch(batch []*Request, tStart float64) float64 {
	dev := r.dev

	// Unique seed nodes, first-come order; reqSlot maps each request to
	// its node's row in the batch output.
	ids, reqSlot := r.dedupe(batch)

	// Build (sample, dedup, gather) on the copy stream. The stream idles
	// to the launch point first: the host cannot enqueue the build before
	// the batcher decided to launch.
	prev := dev.SetStream(sim.StreamCopy)
	dev.IdleUntil(tStart)
	b, _ := r.loader.BuildBatch(ids)
	buildDone := dev.Now()
	dev.SetStream(prev)

	// Forward on the compute stream, queued behind the previous batch's
	// forward and gated on the gather.
	dev.IdleUntil(buildDone)
	r.tape.ResetNoGrad()
	logits := r.model.Forward(dev, r.tape, b, false)
	classes := logits.Value.C
	// Response extraction: one streaming argmax over the logits.
	dev.Kernel(sim.KernelCost{
		StreamBytes: float64(4 * len(ids) * classes),
		Tag:         "serve.argmax",
	})
	done := dev.Now()

	for i, q := range batch {
		q.Outcome = OutcomeServed
		q.Start = tStart
		q.Done = done
		q.Batch = r.batches
		q.BatchSize = len(batch)
		q.Class = int32(tensor.ArgMax(logits.Value.Row(reqSlot[i])))
	}
	r.batches++
	r.targets += len(ids)
	return done
}
