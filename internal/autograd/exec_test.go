package autograd

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// rendezvous is a test kernel, x*F, that charges its device and, while
// armed, waits up to a second in each forward and backward for another
// rendezvous record to run at the same time, keeping the most it saw at
// once in each direction.
type rendezvous struct {
	armed    bool
	in       atomic.Int32
	fwd, bwd atomic.Int32
}

func (*rendezvous) Label() string { return "rendezvous" }

func (k *rendezvous) Forward(r *Record) {
	k.meet(&k.fwd)
	x := r.In[0].Value
	tensor.ScaleInto(r.Output(x.R, x.C, false), x, r.F)
	r.Dev.Kernel(sim.KernelCost{StreamBytes: 1e6 * float64(r.F), Tag: "rdv.fwd"})
}

func (k *rendezvous) Backward(r *Record) {
	k.meet(&k.bwd)
	x := r.In[0]
	gx := r.Scratch(0, x.Value.R, x.Value.C, false)
	tensor.ScaleInto(gx, r.Out.Grad, r.F)
	x.AccumGrad(gx)
	r.Dev.Kernel(sim.KernelCost{StreamBytes: 1e6 * float64(r.F), Tag: "rdv.bwd"})
}

func (k *rendezvous) meet(most *atomic.Int32) {
	if !k.armed {
		return
	}
	most.CompareAndSwap(0, k.in.Add(1))
	for end := time.Now().Add(time.Second); most.Load() < 2 && time.Now().Before(end); {
		if k.in.Load() >= 2 {
			most.Store(2)
		}
		runtime.Gosched()
	}
	k.in.Add(-1)
}

// replayBranches records two independent rendezvous branches over their
// own parameters, summed, keeps the tape and replays it once inside a graph
// bracket at the given dense-kernel worker count, the kernel armed when
// there is more than one. It returns the device, the kernel and the tape's
// output and parameter gradients.
func replayBranches(t *testing.T, workers int) (*sim.Device, *rendezvous, [3]*tensor.Dense) {
	t.Helper()
	defer tensor.SetWorkers(tensor.SetWorkers(workers))
	dev := sim.NewMachine(sim.DGXA100(1)).Devs[0]
	dev.Tracing = true
	k := &rendezvous{}
	x1, x2 := tensor.New(5, 3), tensor.New(5, 3)
	fillSeq(x1, 0.5)
	fillSeq(x2, -1.25)
	tp := NewTapeArena(tensor.NewArena())
	p1, p2 := tp.Param(x1), tp.Param(x2)
	a := tp.Record(Record{Kernel: k, In: [2]*Var{p1}, Dev: dev, F: 2})
	b := tp.Record(Record{Kernel: k, In: [2]*Var{p2}, Dev: dev, F: 3})
	s := Add(a, b)
	seed := ones(5, 3)
	tp.Backward(s, seed)

	k.armed = workers > 1
	fillSeq(x1, 0.75)
	dev.BeginGraphReplay("")
	tp.Replay()
	tp.Backward(s, seed)
	dev.EndGraphReplay()
	k.armed = false
	return dev, k, [3]*tensor.Dense{s.Value, p1.Grad, p2.Grad}
}

// TestReplayRunsIndependentRecordsConcurrently: with two workers a replay
// runs two independent records at once, forward and backward, and its
// values, clocks, counters and trace equal a one-worker replay's.
func TestReplayRunsIndependentRecordsConcurrently(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one CPU or one P: a replay runs every record inline")
	}
	devIn, _, in := replayBranches(t, 1)
	devCo, kCo, co := replayBranches(t, 2)
	if kCo.fwd.Load() != 2 || kCo.bwd.Load() != 2 {
		t.Errorf("two workers ran %d forwards and %d backwards at once, want 2", kCo.fwd.Load(), kCo.bwd.Load())
	}
	for i, name := range []string{"output", "first gradient", "second gradient"} {
		sameBits(t, name, co[i], in[i])
	}
	if devCo.Now() != devIn.Now() || devCo.Stats != devIn.Stats {
		t.Errorf("clock %v stats %+v, one worker %v %+v", devCo.Now(), devCo.Stats, devIn.Now(), devIn.Stats)
	}
	ti, tc := devIn.Trace(), devCo.Trace()
	if len(tc) != len(ti) {
		t.Fatalf("trace of %d intervals, one worker %d", len(tc), len(ti))
	}
	for i := range ti {
		if tc[i] != ti[i] {
			t.Errorf("trace interval %d: %+v, one worker %+v", i, tc[i], ti[i])
		}
	}
}

// bomb is a test kernel, x*F, whose forward, while armed, waits up to a
// second for a second bomb record to run at the same time and panics.
type bomb struct {
	armed bool
	in    atomic.Int32
}

func (*bomb) Label() string { return "bomb" }

func (k *bomb) Forward(r *Record) {
	if k.armed {
		k.in.Add(1)
		for end := time.Now().Add(time.Second); k.in.Load() < 2 && time.Now().Before(end); {
			runtime.Gosched()
		}
		panic("bomb")
	}
	x := r.In[0].Value
	tensor.ScaleInto(r.Output(x.R, x.C, false), x, r.F)
	r.Dev.Kernel(sim.KernelCost{StreamBytes: 1e6, Tag: "bomb"})
}

func (*bomb) Backward(*Record) {}

// TestReplayPanicReachesCaller: kernels panicking in a concurrent replay, on
// the caller's goroutine and on a helper at once, end the pass with the
// panic re-raised on the caller once every helper has stopped, and the tape
// replays normally afterwards.
func TestReplayPanicReachesCaller(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one CPU or one P: a replay runs every record inline")
	}
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	dev := sim.NewMachine(sim.DGXA100(1)).Devs[0]
	k := &bomb{}
	x := tensor.New(4, 3)
	fillSeq(x, 0.5)
	tp := NewTapeArena(tensor.NewArena())
	p := tp.Const(x)
	a := tp.Record(Record{Kernel: k, In: [2]*Var{p}, Dev: dev, F: 2})
	b := tp.Record(Record{Kernel: k, In: [2]*Var{p}, Dev: dev, F: 3})
	want := [2][]float32{append([]float32(nil), a.Value.V...), append([]float32(nil), b.Value.V...)}
	dev.BeginGraphReplay("")
	defer dev.EndGraphReplay()
	k.armed = true
	func() {
		defer func() {
			if r := recover(); r != "bomb" {
				t.Errorf("replay recovered %v, want the kernels' panic", r)
			}
		}()
		tp.Replay()
	}()
	if n := k.in.Load(); n != 2 {
		t.Errorf("%d bombs went off, want one on each goroutine", n)
	}
	k.armed = false
	for i := range tp.ops {
		if tp.ops[i].Dev != dev {
			t.Fatalf("record %d charges %v after the panic, want the device", i, tp.ops[i].Dev)
		}
	}
	tp.Replay()
	for i, out := range []*Var{a, b} {
		sameBits(t, "replay after the panic", out.Value, tensor.FromSlice(4, 3, want[i]))
	}
}
