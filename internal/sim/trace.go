package sim

// Interval is one busy or idle span on a device timeline. Stream records
// which of the device's two timelines the span lies on; utilization
// helpers below treat the trace as one timeline, so pass one stream's
// intervals when the run used both streams.
type Interval struct {
	Start, End float64
	Busy       bool
	// Comm marks a collective-engine transfer (NVLink/IB occupancy rather
	// than SM work); the Chrome trace gives these their own lane.
	Comm bool
	// Graph marks work executed inside a captured step-graph replay (its
	// per-kernel launch overhead was amortized into one graph launch).
	Graph  bool
	Tag    string
	Stream StreamKind
	// Node is the 1-based whole-step scheduler DAG node this interval was
	// issued for, or 0 when the work was not scheduler-placed.
	Node int
	// Decision marks a scheduler-decision annotation (the span the list
	// scheduler reserved for a node) rather than real stream occupancy; the
	// Chrome trace gives these their own lane and the utilization helpers
	// ignore them via Busy == false.
	Decision bool
}

// Trace returns the recorded intervals. Tracing must have been enabled
// before the run (Device.Tracing = true).
func (d *Device) Trace() []Interval { return d.trace }

// Utilization samples the busy fraction of the timeline between t0 and t1
// into n equal buckets, mimicking how nvidia-smi polls GPU utilization for
// Figure 12. Values are in [0,1].
func Utilization(trace []Interval, t0, t1 float64, n int) []float64 {
	out := make([]float64, n)
	if n == 0 || t1 <= t0 {
		return out
	}
	w := (t1 - t0) / float64(n)
	for _, iv := range trace {
		if !iv.Busy || iv.End <= t0 || iv.Start >= t1 {
			continue
		}
		s, e := iv.Start, iv.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		b0 := int((s - t0) / w)
		b1 := int((e - t0) / w)
		if b1 >= n {
			b1 = n - 1
		}
		for b := b0; b <= b1; b++ {
			bs := t0 + float64(b)*w
			be := bs + w
			lo, hi := s, e
			if lo < bs {
				lo = bs
			}
			if hi > be {
				hi = be
			}
			if hi > lo {
				out[b] += (hi - lo) / w
			}
		}
	}
	for i, v := range out {
		if v > 1 {
			out[i] = 1
		}
	}
	return out
}

// BusyFraction returns the busy share of the timeline between t0 and t1.
func BusyFraction(trace []Interval, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	busy := 0.0
	for _, iv := range trace {
		if !iv.Busy || iv.End <= t0 || iv.Start >= t1 {
			continue
		}
		s, e := iv.Start, iv.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		busy += e - s
	}
	return busy / (t1 - t0)
}
