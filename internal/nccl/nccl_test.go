package nccl

import (
	"math"
	"strings"
	"testing"

	"wholegraph/internal/sim"
)

// gpus returns a one-node machine of n GPUs.
func gpus(n int) *sim.Machine {
	cfg := sim.DGXA100(1)
	cfg.GPUsPerNode = n
	return sim.NewMachine(cfg)
}

func TestAllReduceMean(t *testing.T) {
	m := gpus(4)
	devs := m.Devs
	bufs := [][]float32{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	}
	AllReduceMeanHierarchical(m, bufs)
	for i, b := range bufs {
		if b[0] != 4 || b[1] != 5 {
			t.Fatalf("buffer %d = %v, want [4 5]", i, b)
		}
	}
	if m.MaxTime() == 0 {
		t.Error("allreduce charged nothing")
	}
	for _, d := range devs {
		if d.Now() != devs[0].Now() {
			t.Error("devices not synchronized after allreduce")
		}
	}
}

func TestAllReduceMeanHierarchical(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(2))
	bufs := make([][]float32, 16)
	for i := range bufs {
		bufs[i] = []float32{float32(i)}
	}
	AllReduceMeanHierarchical(m, bufs)
	want := float32(7.5)
	for i, b := range bufs {
		if math.Abs(float64(b[0]-want)) > 1e-6 {
			t.Fatalf("buffer %d = %v, want %v", i, b[0], want)
		}
	}
	if m.MaxTime() == 0 {
		t.Error("hierarchical allreduce charged nothing")
	}
}

// TestAllReduceMismatchPanics: buffers of unequal length are refused with
// the package's own message, whether the first buffer is the shorter (which
// would index past the sum) or the longer (which would average silently
// over the missing tail).
func TestAllReduceMismatchPanics(t *testing.T) {
	for _, bufs := range [][][]float32{{{1}, {1, 2}}, {{1, 2}, {1}}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "nccl: buffer 1 has") {
					t.Errorf("buffers %v: panic %q, want the nccl length check", bufs, msg)
				}
			}()
			AllReduceMeanHierarchical(gpus(2), bufs)
		}()
	}
}

func TestAlltoAllv(t *testing.T) {
	m := sim.NewMachine(sim.DGXA100(1))
	devs := m.NodeDevs(0)[:3]
	send := make([][][]int64, 3)
	for i := range send {
		send[i] = make([][]int64, 3)
		for j := range send[i] {
			send[i][j] = []int64{int64(10*i + j)}
		}
	}
	recv := AlltoAllv(devs, send, 8)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			if len(recv[j][i]) != 1 || recv[j][i][0] != int64(10*i+j) {
				t.Fatalf("recv[%d][%d] = %v", j, i, recv[j][i])
			}
		}
	}
	if m.MaxTime() == 0 {
		t.Error("alltoallv charged nothing")
	}
}

// meanTime runs AllReduceMeanHierarchical over nd devices with per-buffer
// length n and returns the resulting machine time.
func meanTime(nd, n int) float64 {
	m := gpus(nd)
	bufs := make([][]float32, nd)
	for i := range bufs {
		bufs[i] = make([]float32, n)
	}
	AllReduceMeanHierarchical(m, bufs)
	return m.MaxTime()
}

// TestAllReduceMonotonicity checks the cost model's basic shape: more bytes
// cost more time, and for a fixed payload a larger ring (more latency-bound
// rounds) costs more too.
func TestAllReduceMonotonicity(t *testing.T) {
	if small, big := meanTime(4, 1<<10), meanTime(4, 1<<20); big <= small {
		t.Errorf("1MiB allreduce (%.3gs) not slower than 4KiB (%.3gs)", big, small)
	}
	if few, many := meanTime(2, 1<<12), meanTime(8, 1<<12); many <= few {
		t.Errorf("8-GPU allreduce (%.3gs) not slower than 2-GPU (%.3gs)", many, few)
	}
}

// TestHierarchicalMultiNodeUsesIB checks that the multi-node gradient sync
// crosses InfiniBand: every device records IB traffic and the run is
// slower than the identical payload on one node.
func TestHierarchicalMultiNodeUsesIB(t *testing.T) {
	run := func(nodes int) (float64, *sim.Machine) {
		m := sim.NewMachine(sim.DGXA100(nodes))
		bufs := make([][]float32, len(m.Devs))
		for i := range bufs {
			bufs[i] = make([]float32, 1<<16)
		}
		AllReduceMeanHierarchical(m, bufs)
		return m.MaxTime(), m
	}
	t1, m1 := run(1)
	t2, m2 := run(2)
	if t2 <= t1 {
		t.Errorf("2-node hierarchical allreduce (%.3gs) not slower than 1-node (%.3gs)", t2, t1)
	}
	for _, d := range m1.Devs {
		if d.Stats.IBTxBytes != 0 {
			t.Errorf("single-node device %d recorded IB traffic %v", d.ID, d.Stats.IBTxBytes)
		}
	}
	for _, d := range m2.Devs {
		if d.Stats.IBTxBytes <= 0 {
			t.Errorf("multi-node device %d recorded no IB traffic", d.ID)
		}
		if d.Stats.CommSeconds <= 0 {
			t.Errorf("device %d recorded no CommSeconds", d.ID)
		}
	}
}
