package sim

import (
	"math"
	"testing"
)

func streamTestDevice() *Device {
	m := NewMachine(DGXA100(1))
	return m.Devs[0]
}

func TestStreamsAdvanceIndependently(t *testing.T) {
	d := streamTestDevice()
	d.busy(1.0, "compute")
	if got := d.StreamNow(StreamCopy); got != 0 {
		t.Fatalf("copy clock moved with compute work: %g", got)
	}
	prev := d.SetStream(StreamCopy)
	if prev != StreamCompute {
		t.Fatalf("previous stream = %v, want compute", prev)
	}
	if d.Now() != 0 {
		t.Fatalf("Now on copy stream = %g, want 0", d.Now())
	}
	d.busy(0.25, "copy")
	d.SetStream(prev)
	if got := d.StreamNow(StreamCopy); got != 0.25 {
		t.Errorf("copy clock = %g, want 0.25", got)
	}
	if got := d.Now(); got != 1.0 {
		t.Errorf("compute clock = %g, want 1.0", got)
	}
	if d.Stats.BusySeconds != 1.0 || d.Stats.CopyBusySeconds != 0.25 {
		t.Errorf("stats split busy %g copy %g, want 1.0 / 0.25", d.Stats.BusySeconds, d.Stats.CopyBusySeconds)
	}
}

func TestKernelChargesCurrentStream(t *testing.T) {
	d := streamTestDevice()
	prev := d.SetStream(StreamCopy)
	dtCopy := d.Kernel(KernelCost{StreamBytes: 1e9, Tag: "gather"})
	d.SetStream(prev)
	if d.CurrentStream() != StreamCompute {
		t.Fatalf("SetStream did not restore the compute stream")
	}
	if d.StreamNow(StreamCompute) != 0 {
		t.Errorf("compute clock advanced by copy-stream kernel")
	}
	if got := d.StreamNow(StreamCopy); got != dtCopy || dtCopy <= 0 {
		t.Errorf("copy clock = %g, want kernel time %g > 0", got, dtCopy)
	}
}

func TestEventWaitJoinsStreams(t *testing.T) {
	d := streamTestDevice()
	// Produce on the copy stream until t=2, consume on compute from t=0.5.
	d.SetStream(StreamCopy)
	d.busy(2.0, "produce")
	ev := d.RecordEvent()
	d.SetStream(StreamCompute)
	d.busy(0.5, "other")
	d.WaitEvent(ev, "wait.batch")
	if got := d.Now(); got != 2.0 {
		t.Fatalf("compute clock after wait = %g, want 2.0", got)
	}
	if d.Stats.IdleSeconds != 1.5 {
		t.Errorf("wait recorded %g idle seconds, want 1.5", d.Stats.IdleSeconds)
	}
	// A second wait on the same (now past) event is free.
	d.WaitEvent(ev, "wait.batch")
	if got := d.Now(); got != 2.0 {
		t.Errorf("re-wait moved the clock to %g", got)
	}
	// The zero event never blocks.
	d.WaitEvent(Event{}, "wait.zero")
	if got := d.Now(); got != 2.0 {
		t.Errorf("zero-event wait moved the clock to %g", got)
	}
}

func TestSpanIsLaterStreamClock(t *testing.T) {
	d := streamTestDevice()
	if d.Span() != 0 {
		t.Fatalf("fresh device Span = %g", d.Span())
	}
	d.busy(1.0, "compute")
	if got := d.Span(); got != 1.0 {
		t.Errorf("Span = %g, want compute clock 1.0", got)
	}
	d.SetStream(StreamCopy)
	d.busy(2.5, "copy")
	d.SetStream(StreamCompute)
	if got := d.Span(); got != 2.5 {
		t.Errorf("Span = %g, want copy clock 2.5", got)
	}
}

func TestMaxTimeAndResetCoverCopyStream(t *testing.T) {
	m := NewMachine(DGXA100(1))
	d := m.Devs[3]
	d.SetStream(StreamCopy)
	d.busy(7.0, "copy")
	d.SetStream(StreamCompute)
	if got := m.MaxTime(); got != 7.0 {
		t.Fatalf("MaxTime = %g, want 7.0 from the copy stream", got)
	}
	d.SetStream(StreamCopy)
	m.Reset()
	if d.StreamNow(StreamCopy) != 0 || d.StreamNow(StreamCompute) != 0 {
		t.Error("Reset left a stream clock non-zero")
	}
	if d.CurrentStream() != StreamCompute {
		t.Error("Reset did not restore the compute stream selection")
	}
	if got := m.MaxTime(); got != 0 {
		t.Errorf("MaxTime after Reset = %g", got)
	}
}

func TestTraceMarksStreams(t *testing.T) {
	d := streamTestDevice()
	d.Tracing = true
	d.busy(1.0, "k")
	d.SetStream(StreamCopy)
	d.busy(0.5, "g")
	d.SetStream(StreamCompute)
	tr := d.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace has %d intervals, want 2", len(tr))
	}
	if tr[0].Stream != StreamCompute || tr[1].Stream != StreamCopy {
		t.Errorf("stream marks = %v, %v", tr[0].Stream, tr[1].Stream)
	}
	if tr[1].Tag != "g" {
		t.Errorf("copy interval = %+v", tr[1])
	}
	// Per-stream busy fractions stay meaningful: the copy stream was busy
	// 0.5 of its first second, the compute stream all of it.
	if bf := BusyFraction(tr[:1], 0, 1); math.Abs(bf-1) > 1e-12 {
		t.Errorf("compute busy fraction = %g", bf)
	}
	if bf := BusyFraction(tr[1:], 0, 1); math.Abs(bf-0.5) > 1e-12 {
		t.Errorf("copy busy fraction = %g", bf)
	}
}
