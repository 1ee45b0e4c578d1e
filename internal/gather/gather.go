// Package gather implements the two global feature-gather strategies of
// Figure 4. The input on every GPU is a random list of feature-row indices
// whose rows may live on any GPU; the output is those rows, in input order,
// in the requesting GPU's memory.
//
//   - SharedMem: WholeGraph's approach. One gather kernel per GPU reads
//     every row directly over NVLink peer access; the switch fabric does
//     the communication (right side of Figure 4).
//   - Distributed: the distributed-memory baseline. Five explicit steps
//     with NCCL: bucket IDs by home GPU, exchange counts + IDs, local
//     gather on every home GPU, AlltoAllv the features back, reorder to
//     the input order (left side of Figure 4).
//
// Both produce identical outputs; they differ in time and traffic, which is
// exactly what Figure 10 measures.
package gather

import (
	"fmt"
	"unsafe"

	"wholegraph/internal/nccl"
	"wholegraph/internal/sim"
	"wholegraph/internal/wholemem"
)

// Request is one GPU's gather: Rows are feature-row indices into the shared
// feature table; Out receives len(Rows)*dim floats in Rows order.
type Request struct {
	Dev  *sim.Device
	Rows []int64
	Out  []float32
}

// NewRequest allocates a request with a correctly sized output buffer.
func NewRequest(dev *sim.Device, rows []int64, dim int) *Request {
	return &Request{Dev: dev, Rows: rows, Out: make([]float32, len(rows)*dim)}
}

// Reset repoints the request at a new row list, reusing the Out buffer when
// its capacity suffices and growing it otherwise. Steady-state loops keep
// one Request per device and Reset it each iteration instead of allocating
// a fresh output buffer.
func (r *Request) Reset(rows []int64, dim int) *Request {
	r.Rows = rows
	n := len(rows) * dim
	if cap(r.Out) < n {
		r.Out = make([]float32, n)
	} else {
		r.Out = r.Out[:n]
	}
	return r
}

// outSpan returns the address range [lo, hi) covered by r.Out's useful
// prefix, for alias detection. Empty buffers span nothing.
func (r *Request) outSpan(dim int) (lo, hi uintptr) {
	n := len(r.Rows) * dim
	if n == 0 {
		return 0, 0
	}
	lo = uintptr(unsafe.Pointer(&r.Out[0]))
	return lo, lo + uintptr(n)*unsafe.Sizeof(float32(0))
}

func checkReqs(dim int, reqs []*Request) {
	for i, r := range reqs {
		if len(r.Out) < len(r.Rows)*dim {
			panic(fmt.Sprintf("gather: request %d output too small: %d for %d rows", i, len(r.Out), len(r.Rows)))
		}
	}
	// Requests execute concurrently and each scatters into its own Out; two
	// requests sharing (an overlapping slice of) one buffer would race and
	// silently clobber each other's rows, so reject aliasing up front.
	for i := range reqs {
		li, hi := reqs[i].outSpan(dim)
		if li == hi {
			continue
		}
		for j := i + 1; j < len(reqs); j++ {
			lj, hj := reqs[j].outSpan(dim)
			if lj == hj {
				continue
			}
			if li < hj && lj < hi {
				panic(fmt.Sprintf("gather: requests %d and %d alias the same Out buffer", i, j))
			}
		}
	}
}

// SharedMem performs every request with one peer-access gather kernel and
// returns the latest completion time across the devices. Requests must
// target distinct devices (as on the real machine, where each GPU issues
// its own gather kernel); they execute concurrently under sim.RunParallel.
func SharedMem(feat *wholemem.Memory[float32], dim int, reqs []*Request) float64 {
	checkReqs(dim, reqs)
	sim.RunParallel(len(reqs), func(i int) {
		r := reqs[i]
		feat.GatherRows(r.Dev, r.Rows, dim, r.Out, "gather.shared")
	})
	end := 0.0
	for _, r := range reqs {
		if r.Dev.Now() > end {
			end = r.Dev.Now()
		}
	}
	return end
}

// DistributedBreakdown reports the five step completion times of the
// distributed-memory gather, in seconds from the start of the operation:
// bucket, ID exchange (counts + IDs), local gather, feature AlltoAllv, and
// the final reorder. Figure 10 compares the last AlltoAllv's bandwidth with
// the whole-operation bandwidth of the shared-memory gather.
type DistributedBreakdown struct {
	Start float64
	Steps [5]float64
}

// Total returns the end-to-end distributed gather time.
func (b DistributedBreakdown) Total() float64 { return b.Steps[4] - b.Start }

// AlltoAllvTime returns the duration of step 4 (the feature exchange).
func (b DistributedBreakdown) AlltoAllvTime() float64 { return b.Steps[3] - b.Steps[2] }

// Distributed performs the requests with the 5-step NCCL scheme of
// Figure 4 (left) and returns the latest completion time.
func Distributed(feat *wholemem.Memory[float32], dim int, reqs []*Request) float64 {
	end, _ := DistributedWithBreakdown(feat, dim, reqs)
	return end
}

// DistributedWithBreakdown is Distributed with per-step timing.
func DistributedWithBreakdown(feat *wholemem.Memory[float32], dim int, reqs []*Request) (float64, DistributedBreakdown) {
	checkReqs(dim, reqs)
	devs := make([]*sim.Device, len(reqs))
	for i, r := range reqs {
		devs[i] = r.Dev
	}
	nRanks := feat.Comm().Size()
	if len(reqs) != nRanks {
		panic(fmt.Sprintf("gather: Distributed needs one request per rank (%d), got %d", nRanks, len(reqs)))
	}
	var bd DistributedBreakdown
	bd.Start = sim.Barrier(devs)

	// Step 1: bucket node IDs by home GPU. One pass over the ID list plus
	// the bucketed write. Each rank buckets its own request concurrently.
	sendIDs := make([][][]int64, nRanks)
	backPos := make([][][]int64, nRanks) // original position of each bucketed ID
	sim.RunParallel(len(reqs), func(i int) {
		r := reqs[i]
		sendIDs[i] = make([][]int64, nRanks)
		backPos[i] = make([][]int64, nRanks)
		for pos, row := range r.Rows {
			home := feat.RankOf(row * int64(dim))
			sendIDs[i][home] = append(sendIDs[i][home], row)
			backPos[i][home] = append(backPos[i][home], int64(pos))
		}
		r.Dev.Kernel(sim.KernelCost{
			StreamBytes: float64(2 * 8 * len(r.Rows)),
			Tag:         "gather.bucket",
		})
	})
	bd.Steps[0] = sim.Barrier(devs)

	// Step 2: send the per-pair counts, then the node IDs themselves.
	counts := make([][][]int64, nRanks)
	for i := range counts {
		counts[i] = make([][]int64, nRanks)
		for j := range counts[i] {
			counts[i][j] = []int64{int64(len(sendIDs[i][j]))}
		}
	}
	nccl.AlltoAllv(devs, counts, 8)
	recvIDs := nccl.AlltoAllv(devs, sendIDs, 8)
	bd.Steps[1] = sim.Barrier(devs)

	// Step 3: every home GPU gathers locally for all requesters,
	// concurrently (each reads only its own shard).
	sendFeats := make([][][]float32, nRanks)
	sim.RunParallel(nRanks, func(home int) {
		sendFeats[home] = make([][]float32, nRanks)
		var rows int64
		for from := 0; from < nRanks; from++ {
			ids := recvIDs[home][from]
			buf := make([]float32, len(ids)*dim)
			for k, row := range ids {
				feat.ReadRow(row, buf[k*dim:(k+1)*dim])
			}
			sendFeats[home][from] = buf
			rows += int64(len(ids))
		}
		devs[home].Kernel(sim.KernelCost{
			RandBytes:   float64(rows * int64(dim) * 4),
			StreamBytes: float64(rows * int64(dim) * 4),
			Tag:         "gather.local",
		})
	})
	bd.Steps[2] = sim.Barrier(devs)

	// Step 4: AlltoAllv the gathered features back to the requesters.
	recvFeats := nccl.AlltoAllv(devs, sendFeats, 4)
	bd.Steps[3] = sim.Barrier(devs)

	// Step 5: local reorder into the original input order, per rank.
	sim.RunParallel(len(reqs), func(i int) {
		r := reqs[i]
		for home := 0; home < nRanks; home++ {
			buf := recvFeats[i][home]
			for k, pos := range backPos[i][home] {
				copy(r.Out[pos*int64(dim):(pos+1)*int64(dim)], buf[k*dim:(k+1)*dim])
			}
		}
		r.Dev.Kernel(sim.KernelCost{
			StreamBytes: float64(2 * 4 * len(r.Rows) * dim),
			Tag:         "gather.reorder",
		})
	})
	bd.Steps[4] = sim.Barrier(devs)
	return bd.Steps[4], bd
}
