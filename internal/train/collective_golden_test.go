package train

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"wholegraph/internal/gather"
	"wholegraph/internal/nccl"
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

// collectiveGolden is what three collective-heavy runs charged at commit
// 49c3525, before the link model's hop was written once: two FNV-1a hashes
// per run — every device's two stream clocks and DeviceStats (NVLink and
// InfiniBand bytes, comm seconds) plus the epochs' statistics, and worker
// 0's trace (tag, start, end, stream). A different hash is a change of
// virtual time, of a link counter or of the order of charges, not of host
// cost. The sched+pipeline+overlap row was re-recorded when each worker
// came to keep one step graph instead of one per loader face: its second
// face's first step replays instead of capturing.
var collectiveGolden = map[string][2]uint64{
	"gat/2node/sched+pipeline+overlap": {0xdf42966c382f6b39, 0x06a0b21daf8be352},
	"graphsage/1node/sequential":       {0x700e8db4ae4ae872, 0x6340e5b15f66744f},
	"gather/distributed+alltoallv":     {0xe5bf0fd2f0e22167, 0xcecd76d21dede090},
}

func hashMachine(m *sim.Machine, extra string) [2]uint64 {
	var out [2]uint64
	h := fnv.New64a()
	for _, d := range m.Devs {
		fmt.Fprintf(h, "%v %v %+v\n", d.StreamNow(sim.StreamCompute), d.StreamNow(sim.StreamCopy), d.Stats)
	}
	fmt.Fprint(h, extra)
	out[0] = h.Sum64()
	h.Reset()
	for _, iv := range m.Devs[0].Trace() {
		fmt.Fprintf(h, "%s %v %v %d\n", iv.Tag, iv.Start, iv.End, iv.Stream)
	}
	out[1] = h.Sum64()
	return out
}

// trainGoldenRun runs two epochs and hashes the machine and the epochs.
// Gradient buckets close at bucket bytes, or at the default for 0.
func trainGoldenRun(t *testing.T, nodes int, opts Options, bucket int) [2]uint64 {
	t.Helper()
	m := sim.NewMachine(sim.DGXA100(nodes))
	tr, err := New(m, smallDataset(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if bucket > 0 {
		tr.bucketCap = bucket
	}
	if tr.ItersPerEpoch() < 5 || tr.Pipelined() != opts.Pipeline {
		t.Fatalf("%s: %d iterations per epoch, pipelined %v: too small to pin the loop",
			opts.Arch, tr.ItersPerEpoch(), tr.Pipelined())
	}
	var epochs string
	for e := 0; e < 2; e++ {
		epochs += fmt.Sprintf("%+v\n", tr.RunEpoch())
	}
	if opts.Schedule && tr.GraphStats().Scheduled == 0 {
		t.Errorf("%s: no scheduled replay", opts.Arch)
	}
	if nodes > 1 && m.Devs[0].Stats.IBTxBytes == 0 {
		t.Errorf("%s: %d nodes but no InfiniBand bytes", opts.Arch, nodes)
	}
	return hashMachine(m, epochs)
}

// gatherGoldenRun sets up a wholemem feature slab (the IPC-handle
// AllGather), runs the 5-step distributed gather on one node, then an
// AlltoAllv with a skewed byte matrix over the 16 devices of two nodes, so
// the pairwise rounds cross InfiniBand.
func gatherGoldenRun(t *testing.T) [2]uint64 {
	t.Helper()
	const nRows, dim = 2048, 16
	m := sim.NewMachine(sim.DGXA100(2))
	m.Devs[0].Tracing = true
	comm, err := wholemem.NewComm(m.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	feat := wholemem.Alloc[float32](comm, nRows*dim)
	rng := rand.New(rand.NewSource(7))
	reqs := make([]*gather.Request, comm.Size())
	for i, d := range comm.Devs {
		rows := make([]int64, 200+50*i)
		for j := range rows {
			rows[j] = rng.Int63n(nRows)
		}
		reqs[i] = gather.NewRequest(d, rows, dim)
	}
	gather.Distributed(feat, dim, reqs)
	n := len(m.Devs)
	send := make([][][]int32, n)
	for i := range send {
		send[i] = make([][]int32, n)
		for j := range send[i] {
			send[i][j] = make([]int32, rng.Intn(4096)*(1+(i+j)%3))
		}
	}
	nccl.AlltoAllv(m.Devs, send, 4)
	return hashMachine(m, "")
}

// TestCollectiveGolden pins the virtual clocks, link counters and trace of
// the paper's three collectives — the IPC-handle AllGather, the blocking and
// bucketed hierarchical AllReduce, and the AlltoAllv of the gather baseline —
// under both epoch-loop shapes.
func TestCollectiveGolden(t *testing.T) {
	gat := smallOpts("gat")
	gat.Batch, gat.RealWorkers, gat.Trace, gat.MaxItersPerEpoch = 2, 2, true, 5
	gat.Schedule, gat.Pipeline, gat.OverlapGrads = true, true, true
	sage := smallOpts("graphsage")
	sage.Batch, sage.RealWorkers, sage.Trace = 4, 2, true
	runs := map[string]func() [2]uint64{
		"gat/2node/sched+pipeline+overlap": func() [2]uint64 { return trainGoldenRun(t, 2, gat, 16<<10) },
		"graphsage/1node/sequential":       func() [2]uint64 { return trainGoldenRun(t, 1, sage, 0) },
		"gather/distributed+alltoallv":     func() [2]uint64 { return gatherGoldenRun(t) },
	}
	for name, run := range runs {
		got := run()
		if want := collectiveGolden[name]; got != want {
			t.Errorf("%q: {%#016x, %#016x},\n\twant {%#016x, %#016x} (clocks+stats, trace)",
				name, got[0], got[1], want[0], want[1])
		}
	}
}
