package train

import (
	"wholegraph/internal/autograd"
	"wholegraph/internal/nn"
	"wholegraph/internal/sim"
)

// Gradient-communication overlap (Options.OverlapGrads): instead of one
// blocking AllReduce over the whole gradient vector after backward, the
// model's parameters are coalesced into byte-bounded buckets (DDP's
// bucket_cap_mb scheme: consecutive parameters accumulate into a bucket
// until its gradient payload reaches the trainer's bucket cap) and each
// bucket's hierarchical AllReduce is issued on the copy stream as soon as every
// worker's backward pass has finalized that bucket's gradients — the tape
// reports readiness through BackwardHooked.
// Communication for layer l+1 then rides under the backward compute of
// layer l, and the optimizer only waits for each device's own last bucket.
// The averaging math per bucket is byte-for-byte the code averageGradients
// runs per parameter, in the same worker order, so losses, gradients and
// model state are bit-identical to the blocking path; only virtual time
// improves.

// overlapState is the lazily-built per-trainer bucket machinery.
type overlapState struct {
	buckets     [][]int   // bucket -> parameter indices (contiguous runs)
	paramBucket []int     // parameter index -> bucket
	bucketBytes []float64 // gradient payload per bucket (4 bytes/element)

	// Per real worker, reused every iteration.
	watch    [][]*autograd.Var // parameter Vars on the current tape
	left     [][]int           // per bucket: parameters not yet final
	readyAt  [][]float64       // per bucket: compute-stream readiness time
	readyFns []func(int)       // BackwardHooked callback, one per worker

	// Orchestrator scratch.
	devWorker []int // device index -> real-worker index, -1 for mirrors
	maxReady  []float64
	order     []int
	startAt   []float64
	lastDone  []float64 // per device: its completion time of its last bucket
}

// defaultBucketBytes is the gradient-bucket coalescing threshold: 256 KiB of
// gradient payload per bucket, small enough that the paper-scale models
// still split into several buckets and backward/comm overlap has pipeline
// stages to fill.
const defaultBucketBytes = 256 << 10

// ensureOverlap builds the bucket layout and per-worker scratch on first use.
// Consecutive parameters (registration order, which matches backward
// finalization order in reverse) coalesce into one bucket until the bucket
// holds at least t.bucketCap gradient bytes, then the next parameter opens a
// fresh bucket — tiny biases ride with their layer's weights instead of
// paying a standalone AllReduce's latency.
func (t *Trainer) ensureOverlap() {
	if t.ov != nil {
		return
	}
	t.ensureAvgState()
	bucketCap := float64(t.bucketCap)
	s := &overlapState{}
	params := t.Models[0].Params().Params()
	s.paramBucket = make([]int, len(params))
	for pi, p := range params {
		if pi == 0 || s.bucketBytes[len(s.buckets)-1] >= bucketCap {
			s.buckets = append(s.buckets, nil)
			s.bucketBytes = append(s.bucketBytes, 0)
		}
		b := len(s.buckets) - 1
		s.buckets[b] = append(s.buckets[b], pi)
		s.bucketBytes[b] += float64(4 * len(p.W.V))
		s.paramBucket[pi] = b
	}
	nw, nb := len(t.Models), len(s.buckets)
	s.watch = make([][]*autograd.Var, nw)
	s.left = make([][]int, nw)
	s.readyAt = make([][]float64, nw)
	s.readyFns = make([]func(int), nw)
	for w := 0; w < nw; w++ {
		s.watch[w] = make([]*autograd.Var, 0, len(params))
		s.left[w] = make([]int, nb)
		s.readyAt[w] = make([]float64, nb)
		w := w
		dev := t.loaders[w].Device()
		s.readyFns[w] = func(pi int) {
			b := s.paramBucket[pi]
			s.left[w][b]--
			if s.left[w][b] == 0 {
				s.readyAt[w][b] = dev.StreamNow(sim.StreamCompute)
			}
		}
	}
	s.devWorker = make([]int, len(t.Machine.Devs))
	for i, d := range t.Machine.Devs {
		s.devWorker[i] = -1
		for w := range t.loaders {
			if t.loaders[w].Device() == d {
				s.devWorker[i] = w
			}
		}
	}
	s.maxReady = make([]float64, nb)
	s.order = make([]int, 0, nb)
	s.startAt = make([]float64, len(t.Machine.Devs))
	s.lastDone = make([]float64, len(t.Machine.Devs))
	t.ov = s
}

// watchBuckets arms worker w's per-bucket countdowns for one backward pass
// over the parameters' current tape variables, and returns the watch list
// and callback through which BackwardHooked reports each bucket final.
func (t *Trainer) watchBuckets(w int, ps *nn.ParamSet) ([]*autograd.Var, func(int)) {
	s := t.ov
	s.watch[w] = ps.BoundVars(s.watch[w][:0])
	for b := range s.buckets {
		s.left[w][b] = len(s.buckets[b])
		s.readyAt[w][b] = 0
	}
	return s.watch[w], s.readyFns[w]
}

// overlapGradSync averages each gradient bucket across replicas and issues
// its hierarchical AllReduce on the copy stream, gated per device at the
// moment that device's bucket became ready. Mirror devices are gated at the
// busiest worker's readiness (matching how their compute is mirrored) and
// joined here; real workers join inside the optimizer region via
// WaitGradSync. Orchestrator-only, like every collective launch.
func (t *Trainer) overlapGradSync() {
	s := t.ov
	m := t.Machine
	for b := range s.buckets {
		mr := 0.0
		for w := range t.Models {
			if s.readyAt[w][b] > mr {
				mr = s.readyAt[w][b]
			}
		}
		s.maxReady[b] = mr
	}
	// Buckets flush in fleet readiness order, each device joining at its
	// own backward readiness.
	s.order = bucketOrder(s.maxReady, s.order)
	clear(s.lastDone)
	for _, b := range s.order {
		if len(t.Models) > 1 {
			for _, pi := range s.buckets[b] {
				t.averageParam(pi)
			}
		}
		gateStarts(s.devWorker, s.readyAt, b, s.maxReady[b], s.startAt)
		c := sim.StartHierarchicalAllReduce(m, s.bucketBytes[b], sim.CollOpts{
			Stream: sim.StreamCopy, StartAt: s.startAt, Tag: "allreduce.grads",
		})
		for i := range m.Devs {
			if done := c.Done[i].T; done > s.lastDone[i] {
				s.lastDone[i] = done
			}
		}
	}
	for i, d := range m.Devs {
		if s.devWorker[i] < 0 {
			d.WaitEvent(sim.Event{T: s.lastDone[i]}, "grad-sync")
		}
	}
}

// bucketOrder fills order with all bucket indices sorted by fleet-wide
// readiness (ties by index) — the order DDP's reducer flushes buckets.
// maxReady[b] is bucket b's readiness across workers; order's backing
// array is reused when large enough.
func bucketOrder(maxReady []float64, order []int) []int {
	order = order[:0]
	for b := range maxReady {
		order = append(order, b)
	}
	// Insertion sort: bucket counts are small and this stays allocation-free.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && maxReady[order[j]] < maxReady[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// gateStarts fills startAt (one entry per device) with the earliest time
// each device may join bucket b's AllReduce: real workers at their own
// backward readiness, mirror devices at the busiest worker's (matching how
// their compute is mirrored). devWorker maps device index to real-worker
// index, -1 for mirrors; readyAt is indexed [worker][bucket].
func gateStarts(devWorker []int, readyAt [][]float64, b int, maxReady float64, startAt []float64) {
	for i, w := range devWorker {
		if w >= 0 {
			startAt[i] = readyAt[w][b]
		} else {
			startAt[i] = maxReady
		}
	}
}
