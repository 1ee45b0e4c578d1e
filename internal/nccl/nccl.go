// Package nccl provides data-carrying simulated collectives: the real
// buffers are exchanged/reduced in host memory while the cost of the
// corresponding NCCL operation is charged to the participating simulated
// devices through the step-level collective engine (internal/sim), which
// runs each ring as per-step transfers on the modeled NVLink/InfiniBand
// links — device sets spanning nodes pay InfiniBand cost on the crossing
// hops. WholeGraph itself needs only AllReduce (multi-node data-parallel
// gradient sync, §III-D); AlltoAllv exists for the distributed-memory
// gather baseline of Figure 4/10.
package nccl

import (
	"fmt"

	"wholegraph/internal/sim"
)

// AllReduceMeanHierarchical averages the per-device buffers of a whole
// (possibly multi-node) machine elementwise, leaving the mean in every
// buffer, and charges the blocking NVLink+InfiniBand hierarchical
// AllReduce. There is one buffer per device, and all buffers must have
// equal length.
func AllReduceMeanHierarchical(m *sim.Machine, bufs [][]float32) {
	if len(bufs) != len(m.Devs) {
		panic(fmt.Sprintf("nccl: %d buffers for %d devices", len(bufs), len(m.Devs)))
	}
	n := len(bufs[0])
	for i, b := range bufs {
		if len(b) != n {
			panic(fmt.Sprintf("nccl: buffer %d has %d elements, want %d", i, len(b), n))
		}
	}
	sum := make([]float64, n)
	for _, b := range bufs {
		for i, v := range b {
			sum[i] += float64(v)
		}
	}
	inv := 1 / float64(len(bufs))
	for _, b := range bufs {
		for i := range b {
			b[i] = float32(sum[i] * inv)
		}
	}
	sim.HierarchicalAllReduce(m, float64(4*n))
}

// AlltoAllv exchanges variable-length per-pair payloads: send[i][j] is what
// device i sends to device j; the returned recv[j][i] holds it after the
// exchange. elemBytes sizes the charged traffic.
func AlltoAllv[T any](devs []*sim.Device, send [][][]T, elemBytes int) [][][]T {
	n := len(devs)
	if len(send) != n {
		panic(fmt.Sprintf("nccl: send matrix has %d rows for %d devices", len(send), n))
	}
	bytes := make([][]float64, n)
	recv := make([][][]T, n)
	for i := range recv {
		recv[i] = make([][]T, n)
		bytes[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if len(send[i]) != n {
			panic(fmt.Sprintf("nccl: send[%d] has %d columns", i, len(send[i])))
		}
		for j := 0; j < n; j++ {
			recv[j][i] = send[i][j]
			bytes[i][j] = float64(len(send[i][j]) * elemBytes)
		}
	}
	sim.AlltoAllvBytes(devs, bytes)
	return recv
}
