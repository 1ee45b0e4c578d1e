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

// TestStagingTwinKernel: Kernel on a twin returns what the device charges,
// touches nothing of the device, and issuing the staged list on the device
// reproduces direct charging bit for bit — clocks, Stats and trace — on
// either stream.
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
		before, statsBefore, traceBefore := viaTwin.Now(), viaTwin.Stats, len(viaTwin.Trace())
		for i, c := range stageCosts {
			want := direct.Kernel(c)
			if got := twin.Kernel(c); got != want {
				t.Errorf("cost %d: twin Kernel returned %g, device charges %g", i, got, want)
			}
		}
		if viaTwin.Now() != before || viaTwin.Stats != statsBefore || len(viaTwin.Trace()) != traceBefore {
			t.Fatal("staging moved the device's clock, Stats or trace")
		}
		staged := twin.SwapStaged(nil)
		if !reflect.DeepEqual(staged, stageCosts) {
			t.Fatalf("staged list differs from the launches:\n%v\n%v", staged, stageCosts)
		}
		if left := twin.SwapStaged(nil); len(left) != 0 {
			t.Fatalf("SwapStaged left %d costs behind", len(left))
		}
		for _, c := range staged {
			viaTwin.Kernel(c)
		}
		for _, k := range []StreamKind{StreamCompute, StreamCopy} {
			if viaTwin.StreamNow(k) != direct.StreamNow(k) {
				t.Errorf("%v clock: staged %v, direct %v", k, viaTwin.StreamNow(k), direct.StreamNow(k))
			}
		}
		if viaTwin.Stats != direct.Stats {
			t.Errorf("Stats: staged %+v, direct %+v", viaTwin.Stats, direct.Stats)
		}
		if !reflect.DeepEqual(viaTwin.Trace(), direct.Trace()) {
			t.Error("trace intervals differ between staged and direct charging")
		}
	}
}

// TestStagingTwinReusesSwappedList: handing the issued list back makes the
// steady state allocation-free.
func TestStagingTwinReusesSwappedList(t *testing.T) {
	dev := NewMachine(DGXA100(1)).Devs[0]
	twin := dev.StagingTwin()
	var list []KernelCost
	round := func() {
		for _, c := range stageCosts {
			twin.Kernel(c)
		}
		list = twin.SwapStaged(list)
		for _, c := range list {
			dev.Kernel(c)
		}
	}
	round()
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("stage/swap/issue round allocates %v times", n)
	}
}

// TestStagingTwinHasNoTimeline: whatever reads, advances or orders virtual
// time panics on a twin, so a clock-dependent build cannot be staged by
// accident.
func TestStagingTwinHasNoTimeline(t *testing.T) {
	m := NewMachine(DGXA100(1))
	dev := m.Devs[1]
	twin := dev.StagingTwin()
	withTwin := []*Device{m.Devs[0], twin}
	for name, fn := range map[string]func(){
		"Now":              func() { twin.Now() },
		"StreamNow":        func() { twin.StreamNow(StreamCopy) },
		"Span":             func() { twin.Span() },
		"CurrentStream":    func() { twin.CurrentStream() },
		"SetStream":        func() { twin.SetStream(StreamCopy) },
		"RecordEvent":      func() { twin.RecordEvent() },
		"WaitEvent":        func() { twin.WaitEvent(Event{T: 1}, "w") },
		"WaitEvent(zero)":  func() { twin.WaitEvent(Event{}, "w") },
		"IdleFor":          func() { twin.IdleFor(1e-6, "i") },
		"IdleFor(0)":       func() { twin.IdleFor(0, "i") },
		"IdleUntil":        func() { twin.IdleUntil(1) },
		"Malloc":           func() { twin.Malloc(1 << 20) },
		"HostCopy":         func() { twin.HostCopy(1 << 20) },
		"ChaseP2P":         func() { twin.ChaseP2P(4, 8) },
		"ApplyCharge":      func() { twin.ApplyCharge(1e-6, "c", false) },
		"ApplyCharge/comm": func() { twin.ApplyCharge(1e-6, "c", true) },
		"AttachRecorder":   func() { twin.AttachRecorder(nil) },
		"BeginGraphReplay": func() { twin.BeginGraphReplay("") },
		"StagingTwin":      func() { twin.StagingTwin() },
		"Barrier":          func() { Barrier(withTwin) },
		"AlltoAllvBytes":   func() { AlltoAllvBytes(withTwin, [][]float64{{0, 1}, {1, 0}}) },
		"StartRingAllGather": func() {
			StartRingAllGather(withTwin, 1<<20, CollOpts{})
		},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s on a staging twin did not panic", name)
				} else if msg, ok := r.(string); !ok || !strings.Contains(msg, "staging twin of device 1") {
					t.Errorf("%s on a staging twin panicked with %v", name, r)
				}
			}()
			fn()
		}()
	}
	if twin.InGraphReplay() {
		t.Error("a refused BeginGraphReplay left the twin in replay mode")
	}
	defer func() {
		if recover() == nil {
			t.Error("SwapStaged on a real device did not panic")
		}
	}()
	dev.SwapStaged(nil)
}
