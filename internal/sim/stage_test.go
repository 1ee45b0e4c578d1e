package sim

import (
	"reflect"
	"strings"
	"testing"
)

// stageCosts covers every pricing branch of Kernel: compute-, stream-,
// random-, NVLink-, UM- and host-bound kernels, a default segment size and
// a default tag.
var stageCosts = []KernelCost{
	{FLOPs: 3e9, StreamBytes: 1e6, Tag: "gemm"},
	{StreamBytes: 4e8, Tag: "stream"},
	{RandBytes: 2e7, RemoteBytes: 6e7, RemoteSegBytes: 400, Tag: "gather.feat"},
	{RemoteBytes: 1e6, Tag: "gather.edgew"},
	{UMBytes: 5e6, Tag: "um"},
	{HostZeroCopyBytes: 3e6, HostSegBytes: 64, Tag: "host"},
	{HostZeroCopyBytes: 3e6},
	{},
}

// sameTimeline reports where two devices' stream clocks, Stats or traces
// differ.
func sameTimeline(t *testing.T, got, want *Device) {
	t.Helper()
	for _, k := range []StreamKind{StreamCompute, StreamCopy} {
		if got.StreamNow(k) != want.StreamNow(k) {
			t.Errorf("%v clock: issued %v, direct %v", k, got.StreamNow(k), want.StreamNow(k))
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("Stats: issued %+v, direct %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Trace(), want.Trace()) {
		t.Errorf("trace intervals differ between issued and direct charging:\n%v\n%v", got.Trace(), want.Trace())
	}
}

// TestStagingTwinKernel: Kernel on a recording twin returns what the device
// charges, touches nothing of the device, and issuing the recorded list on
// the device reproduces direct charging bit for bit — clocks, Stats and
// trace — on either stream.
func TestStagingTwinKernel(t *testing.T) {
	for _, stream := range []StreamKind{StreamCompute, StreamCopy} {
		direct := NewMachine(DGXA100(1)).Devs[3]
		viaTwin := NewMachine(DGXA100(1)).Devs[3]
		for _, d := range []*Device{direct, viaTwin} {
			d.Tracing = true
			d.SetStream(stream)
			d.busy(0.125, "before") // a clock that is not a round number of kernels
		}
		twin := viaTwin.StagingTwin()
		if twin.ID != viaTwin.ID || twin.Node != viaTwin.Node || twin.Local != viaTwin.Local ||
			twin.Machine() != viaTwin.Machine() || twin.Real() != viaTwin || viaTwin.Real() != viaTwin {
			t.Fatal("twin does not carry its device's identity")
		}
		var list []Charge
		twin.Record(&list)
		before, statsBefore, traceBefore := viaTwin.Now(), viaTwin.Stats, len(viaTwin.Trace())
		for i, c := range stageCosts {
			want := direct.Kernel(c)
			if got := twin.Kernel(c); got != want {
				t.Errorf("cost %d: twin Kernel returned %g, device charges %g", i, got, want)
			}
		}
		if viaTwin.Now() != before || viaTwin.Stats != statsBefore || len(viaTwin.Trace()) != traceBefore {
			t.Fatal("recording moved the device's clock, Stats or trace")
		}
		if len(list) != len(stageCosts) {
			t.Fatalf("recorded %d charges for %d launches", len(list), len(stageCosts))
		}
		viaTwin.Issue(list, 0)
		sameTimeline(t, viaTwin, direct)
	}
}

// TestRecordIssueReusesList: recording into a list that was issued and cut
// back to length 0 makes the steady state allocation-free.
func TestRecordIssueReusesList(t *testing.T) {
	dev := NewMachine(DGXA100(1)).Devs[0]
	twin := dev.StagingTwin()
	var list []Charge
	round := func() {
		twin.Record(&list)
		for _, c := range stageCosts {
			twin.Kernel(c)
		}
		dev.Issue(list, 0)
		list = list[:0]
	}
	round()
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("record/issue round allocates %v times", n)
	}
}

// TestStagingTwinHasNoTimeline: whatever reads, advances or orders virtual
// time panics on a recording device — a staging twin, or the device itself
// between Record(list) and Record(nil) — so clock-dependent work cannot be
// deferred by accident. Charges and the graph bracket record.
func TestStagingTwinHasNoTimeline(t *testing.T) {
	m := NewMachine(DGXA100(1))
	dev := m.Devs[1]
	var list []Charge
	twin := dev.StagingTwin()
	twin.Record(&list)
	for _, rec := range []struct {
		d    *Device
		want string
	}{{twin, "staging twin of device 1"}, {dev, "device 1 is recording"}} {
		d := rec.d
		d.Record(&list)
		withRec := []*Device{m.Devs[0], d}
		for name, fn := range map[string]func(){
			"Now":             func() { d.Now() },
			"StreamNow":       func() { d.StreamNow(StreamCopy) },
			"Span":            func() { d.Span() },
			"CurrentStream":   func() { d.CurrentStream() },
			"SetStream":       func() { d.SetStream(StreamCopy) },
			"RecordEvent":     func() { d.RecordEvent() },
			"WaitEvent":       func() { d.WaitEvent(Event{T: 1}, "w") },
			"WaitEvent(zero)": func() { d.WaitEvent(Event{}, "w") },
			"IdleFor":         func() { d.IdleFor(1e-6, "i") },
			"IdleFor(0)":      func() { d.IdleFor(0, "i") },
			"IdleUntil":       func() { d.IdleUntil(1) },
			"HostCopy":        func() { d.HostCopy(1 << 20) },
			"Issue":           func() { d.Issue([]Charge{{Dur: 1e-6}}, 0) },
			"StagingTwin":     func() { d.StagingTwin() },
			"Barrier":         func() { Barrier(withRec) },
			"AlltoAllvBytes":  func() { AlltoAllvBytes(withRec, [][]float64{{0, 1}, {1, 0}}) },
			"StartRingAllGather": func() {
				StartRingAllGather(withRec, 1<<20, CollOpts{})
			},
		} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s on a %s did not panic", name, rec.want)
					} else if msg, ok := r.(string); !ok || !strings.Contains(msg, rec.want) {
						t.Errorf("%s on a %s panicked with %v", name, rec.want, r)
					}
				}()
				fn()
			}()
		}
		list = list[:0]
		d.Kernel(stageCosts[0])
		d.Malloc(1 << 20)
		d.ChaseP2P(4, 8)
		d.BeginGraphReplay("")
		d.Kernel(stageCosts[0])
		d.EndGraphReplay()
		if len(list) != 5 || list[3].GraphLaunches != 1 || !list[4].Graph || list[0].Graph {
			t.Errorf("%s recorded %+v", rec.want, list)
		}
	}
	dev.Record(nil)
	if dev.Now() != 0 || dev.Stats != (DeviceStats{}) {
		t.Error("recording moved the device's clock or Stats")
	}
}

// TestIssueOutsideItsBracketPanics: a charge priced inside a graph-replay
// bracket cannot be issued outside one, nor the other way round.
func TestIssueOutsideItsBracketPanics(t *testing.T) {
	dev := NewMachine(DGXA100(1)).Devs[0]
	var list []Charge
	dev.Record(&list)
	dev.Kernel(stageCosts[0])
	dev.BeginGraphReplay("")
	dev.Kernel(stageCosts[0])
	dev.Record(nil)
	for _, c := range []struct {
		name string
		in   []Charge
	}{{"an eager charge inside the bracket", list[:1]}, {"a graph charge outside it", list[1:]}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("issuing %s did not panic", c.name)
				}
			}()
			if c.in[0].Graph {
				dev.EndGraphReplay()
			}
			dev.Issue(c.in, 0)
		}()
	}
}

// FuzzRecordIssue: a random program of kernels (every KernelCost field set),
// Mallocs, graph brackets and stream switches runs twice with tracing on —
// once charged directly, once recorded in stretches, by the device itself,
// by its staging twin outside a graph-replay bracket or by its graph twin
// inside one, and issued on the device wherever the program needs a
// timeline; a graph twin's stretch is recharged, on the device or, as a
// scheduled replay's, into what the recording device records. Both stream
// clocks, every Stats field and every trace interval must agree exactly.
func FuzzRecordIssue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 2, 7, 3, 4, 5, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 8, 1, 200, 13, 0, 77, 4, 30, 250, 64, 6, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3})
	// Graph twins inside a bracket: relayed through the recording device,
	// then recharged on its timeline.
	f.Add([]byte{3, 29, 0, 9, 9, 9, 9, 9, 9, 9, 9, 41, 1, 7, 7, 7, 7, 7, 7, 7, 7, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, prog []byte) {
		direct := NewMachine(DGXA100(1)).Devs[2]
		issued := NewMachine(DGXA100(1)).Devs[2]
		direct.Tracing, issued.Tracing = true, true
		twin, gtwin := issued.StagingTwin(), issued.GraphTwin()
		var list, relayed []Charge
		rec, relay := issued, false
		// flush issues what rec recorded and hands the device its timeline.
		flush := func() {
			rec.Record(nil)
			switch {
			case rec != gtwin:
				issued.Issue(list, 0)
			case relay:
				issued.Record(&relayed)
				issued.Recharge(list)
				issued.Record(nil)
				issued.Issue(relayed, 0)
				relayed = relayed[:0]
			default:
				issued.Recharge(list)
			}
			list = list[:0]
		}
		next := func() float64 {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return float64(b)
		}
		tags := []string{"", "k", "gather.feat"}
		rec.Record(&list)
		for len(prog) > 0 {
			switch op := int(next()); op % 6 {
			case 0, 1:
				c := KernelCost{FLOPs: next() * 3.1e7, StreamBytes: next() * 7.3e4, RandBytes: next() * 1.7e4,
					RemoteBytes: next() * 5.9e4, RemoteSegBytes: next() * 3, UMBytes: next() * 1.1e3,
					HostZeroCopyBytes: next() * 2.3e3, HostSegBytes: next(), Tag: tags[op%3]}
				if got, want := rec.Kernel(c), direct.Kernel(c); got != want {
					t.Fatalf("recorded Kernel priced %g, direct %g", got, want)
				}
			case 2:
				b := next() * 1.3e6
				if got, want := rec.Malloc(b), direct.Malloc(b); got != want {
					t.Fatalf("recorded Malloc priced %g, direct %g", got, want)
				}
			case 3:
				// A bracket opens on the device itself, recording, as a
				// scheduled replay's does; it closes on a timeline.
				flush()
				if rec = issued; direct.InGraphReplay() {
					direct.EndGraphReplay()
					issued.EndGraphReplay()
				} else {
					direct.BeginGraphReplay(tags[op%3])
					issued.Record(&list)
					issued.BeginGraphReplay(tags[op%3])
					continue
				}
			case 4:
				flush()
				k := StreamKind(1 - direct.CurrentStream())
				direct.SetStream(k)
				issued.SetStream(k)
			case 5:
				// The staging twin prices outside a bracket only, the graph
				// twin inside one.
				flush()
				switch rec, relay = issued, op&16 != 0; {
				case op&8 == 0:
				case issued.InGraphReplay():
					rec = gtwin
				default:
					rec = twin
				}
			}
			rec.Record(&list)
		}
		flush()
		sameTimeline(t, issued, direct)
	})
}
