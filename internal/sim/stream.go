package sim

import "fmt"

// Dual-stream device timelines.
//
// A real GPU overlaps data movement with compute by issuing them on
// different CUDA streams; work within a stream executes in order, and
// cross-stream dependencies are expressed with events (cudaEventRecord on
// the producing stream, cudaStreamWaitEvent on the consuming one). The
// simulation mirrors that: every Device carries two virtual clocks — a
// compute stream for kernels and a copy stream for batch
// extraction/memcpy traffic — and a current-stream selector. All charging
// methods (Kernel, Gemm, busy/idle and everything built on them) advance
// whichever stream is current, so code written against a *Device runs
// unchanged on either timeline.
//
// The model is contention-free: the two streams proceed independently, as
// if copy traffic (NVLink/DMA-bound) and compute kernels (SM-bound) never
// competed for a resource. That is the same idealization the paper's
// Figure 10 overlap and PyTorch-Direct's asynchronous feature access rely
// on: gather kernels saturate the interconnect with negligible SM use, so
// stream concurrency is close to free.

// StreamKind names one of a device's two virtual timelines.
type StreamKind uint8

const (
	// StreamCompute is the default stream; kernels, collectives and
	// barriers run here.
	StreamCompute StreamKind = iota
	// StreamCopy carries batch extraction and memcpy traffic that
	// overlaps with compute.
	StreamCopy
)

func (k StreamKind) String() string {
	switch k {
	case StreamCompute:
		return "compute"
	case StreamCopy:
		return "copy"
	}
	return fmt.Sprintf("stream(%d)", uint8(k))
}

// Event marks a point on one stream's timeline, like a recorded CUDA
// event. The zero Event is at virtual time 0 and therefore never blocks a
// waiter.
type Event struct {
	T float64
}

// CurrentStream returns the stream subsequent charges land on.
func (d *Device) CurrentStream() StreamKind {
	d.mustHaveTimeline()
	return d.stream
}

// SetStream selects the stream subsequent charges land on and returns the
// previous selection. Like every Device method it may only be called by
// the device's owning goroutine.
func (d *Device) SetStream(k StreamKind) StreamKind {
	d.mustHaveTimeline()
	prev := d.stream
	d.stream = k
	return prev
}

// StreamNow returns the named stream's virtual clock in seconds,
// regardless of which stream is current.
func (d *Device) StreamNow(k StreamKind) float64 {
	d.mustHaveTimeline()
	if k == StreamCopy {
		return d.copyNow
	}
	return d.now
}

// Span returns the device's makespan: the later of its two stream clocks.
// It is the per-device building block of Machine.MaxTime and the right
// end-of-run number for code that drove both streams (like the serving
// replicas and the pipelined loaders).
func (d *Device) Span() float64 {
	d.mustHaveTimeline()
	if d.copyNow > d.now {
		return d.copyNow
	}
	return d.now
}

// RecordEvent marks the current position of the current stream.
func (d *Device) RecordEvent() Event { return Event{T: d.Now()} }

// WaitEvent stalls the current stream until the event's time, recording
// idle time for the wait (cudaStreamWaitEvent). Waiting on an event that
// already passed costs nothing.
func (d *Device) WaitEvent(ev Event, tag string) {
	if ev.T > d.Now() {
		d.idle(ev.T-d.Now(), tag)
	}
}
