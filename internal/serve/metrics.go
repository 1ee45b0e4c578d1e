package serve

import (
	"math"
	"slices"
)

// ReplicaStats summarizes one replica's share of a run.
type ReplicaStats struct {
	Replica  int `json:"replica"`
	Requests int `json:"requests"`
	Served   int `json:"served"`
	Shed     int `json:"shed"`
	TimedOut int `json:"timed_out"`
	Batches  int `json:"batches"`
	// Targets counts unique seed nodes executed; Served minus Targets is
	// the work saved by coalescing duplicate requests within a batch.
	Targets int `json:"targets"`
	// BusySeconds and CopyBusySeconds are the device's compute- and
	// copy-stream busy time over the run.
	BusySeconds     float64 `json:"busy_seconds"`
	CopyBusySeconds float64 `json:"copy_busy_seconds"`
	// CacheHitRate is the feature cache's hit rate (0 without a cache).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Result is the aggregated outcome of one serving run. All durations are
// virtual seconds.
type Result struct {
	Offered  int `json:"offered"`
	Served   int `json:"served"`
	Shed     int `json:"shed"`
	TimedOut int `json:"timed_out"`
	Batches  int `json:"batches"`
	// MeanBatch is the mean coalesced batch size (served requests per
	// batch).
	MeanBatch float64 `json:"mean_batch"`
	// Duration spans the first arrival to the last completion (or last
	// arrival when nothing was served).
	Duration float64 `json:"duration"`
	// Throughput is served requests per virtual second over Duration.
	Throughput float64 `json:"throughput_rps"`
	// Latency percentiles over served requests (arrival to completion).
	P50         float64 `json:"p50_latency"`
	P95         float64 `json:"p95_latency"`
	P99         float64 `json:"p99_latency"`
	MeanLatency float64 `json:"mean_latency"`
	MaxLatency  float64 `json:"max_latency"`
	// SLO echoes the configured target; SLOAttainment is the fraction of
	// served requests answered within it, and Goodput the rate of those
	// requests over Duration.
	SLO           float64 `json:"slo"`
	SLOAttainment float64 `json:"slo_attainment"`
	Goodput       float64 `json:"goodput_rps"`

	PerReplica []ReplicaStats `json:"per_replica"`
	// Trace is the full request trace in arrival order; it is what the
	// determinism tests compare bit-for-bit.
	Trace []*Request `json:"-"`
}

// aggregate folds the served trace into a Result, replica stats merged in
// replica order so the output is deterministic.
func (s *Server) aggregate(trace []*Request) *Result {
	res := &Result{Offered: len(trace), SLO: s.Opts.SLO, Trace: trace}
	served := 0
	for _, q := range trace {
		if q.Outcome == OutcomeServed {
			served++
		}
	}
	lat := make([]float64, 0, served)
	within := 0
	lastDone := 0.0
	firstArrival := 0.0
	lastArrival := 0.0
	if len(trace) > 0 {
		firstArrival = trace[0].Arrival
		lastArrival = trace[len(trace)-1].Arrival
	}
	for _, q := range trace {
		switch q.Outcome {
		case OutcomeServed:
			res.Served++
			l := q.Latency()
			lat = append(lat, l)
			res.MeanLatency += l
			if l > res.MaxLatency {
				res.MaxLatency = l
			}
			if l <= s.Opts.SLO {
				within++
			}
			if q.Done > lastDone {
				lastDone = q.Done
			}
		case OutcomeShed:
			res.Shed++
		case OutcomeTimedOut:
			res.TimedOut++
		}
	}
	end := lastDone
	if end < lastArrival {
		end = lastArrival
	}
	res.Duration = end - firstArrival
	if res.Served > 0 {
		res.MeanLatency /= float64(res.Served)
		res.P50, res.P95, res.P99 = latencyPercentiles(lat)
		res.SLOAttainment = float64(within) / float64(res.Served)
	}
	if res.Duration > 0 {
		res.Throughput = float64(res.Served) / res.Duration
		res.Goodput = float64(within) / res.Duration
	}
	res.PerReplica = make([]ReplicaStats, 0, len(s.replicas))
	for _, rep := range s.replicas {
		st := ReplicaStats{
			Replica:         rep.id,
			Batches:         rep.batches,
			Targets:         rep.targets,
			BusySeconds:     rep.dev.Stats.BusySeconds,
			CopyBusySeconds: rep.dev.Stats.CopyBusySeconds,
		}
		if rep.cache != nil {
			st.CacheHitRate = rep.cache.HitRate()
		}
		res.PerReplica = append(res.PerReplica, st)
	}
	for _, q := range trace {
		st := &res.PerReplica[q.Replica]
		st.Requests++
		switch q.Outcome {
		case OutcomeServed:
			st.Served++
		case OutcomeShed:
			st.Shed++
		case OutcomeTimedOut:
			st.TimedOut++
		}
	}
	res.Batches = 0
	for _, st := range res.PerReplica {
		res.Batches += st.Batches
	}
	if res.Batches > 0 {
		res.MeanBatch = float64(res.Served) / float64(res.Batches)
	}
	return res
}

// latencyPercentiles sorts lat in place, once, and returns its nearest-rank
// 50th, 95th and 99th percentiles (zeros for no values).
func latencyPercentiles(lat []float64) (p50, p95, p99 float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	slices.Sort(lat)
	return nearestRank(lat, 0.50), nearestRank(lat, 0.95), nearestRank(lat, 0.99)
}

// nearestRank returns the nearest-rank p-quantile (0 < p <= 1) of the
// non-empty ascending slice sorted.
func nearestRank(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}
