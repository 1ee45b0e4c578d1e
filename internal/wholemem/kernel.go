package wholemem

import (
	"fmt"

	"wholegraph/internal/sim"
)

// Kernel-side operations: they move real data and charge the accessing
// device's clock with the local/remote cost split. Remote traffic goes over
// the NVLink peer-access model with the actual contiguous segment size, so
// small-segment reads pay the Figure 8 bandwidth penalty.

// RankOfDevice returns the communicator rank of device d — for a staging
// twin, of the device it stands for — or -1 if d is not part of the
// communicator.
func (c *Comm) RankOfDevice(d *sim.Device) int {
	for r, dev := range c.Devs {
		if dev == d.Real() {
			return r
		}
	}
	return -1
}

// mustRank panics if d is not in the communicator; kernels can only run on
// ranks that opened the IPC handles.
func (c *Comm) mustRank(d *sim.Device) int {
	r := c.RankOfDevice(d)
	if r < 0 {
		panic(fmt.Sprintf("wholemem: device %d did not open this allocation's IPC handles", d.ID))
	}
	return r
}

// splitBytes returns (localBytes, remoteBytes) for nElem elements of which
// nLocal are on the caller's rank.
func (m *Memory[T]) splitBytes(nLocal, nElem int64) (float64, float64) {
	lb := float64(nLocal * m.eb)
	rb := float64((nElem - nLocal) * m.eb)
	return lb, rb
}

// GatherRows gathers rows (each dim consecutive elements, row r starting at
// global element r*dim) into dst, which must hold len(rows)*dim elements.
// This is the single-kernel shared-memory global gather of Figure 4 (right):
// one launch, hardware handles the remote traffic.
func (m *Memory[T]) GatherRows(d *sim.Device, rows []int64, dim int, dst []T, tag string) float64 {
	if int64(len(dst)) < int64(len(rows))*int64(dim) {
		panic("wholemem: GatherRows dst too small")
	}
	rank := m.comm.mustRank(d)
	lo, hi := m.starts[rank], m.starts[rank+1]
	var nLocal int64
	for i, row := range rows {
		m.ReadRow(row, dst[i*dim:(i+1)*dim])
		// The row's elements on the caller's rank: the whole row or none of
		// it, unless the row crosses a shard boundary.
		first := row * int64(dim)
		nLocal += max(0, min(first+int64(dim), hi)-max(first, lo))
	}
	lb, rb := m.splitBytes(nLocal, int64(len(rows))*int64(dim))
	dst2 := float64(int64(len(rows)) * int64(dim) * m.eb) // dst write
	return d.Kernel(m.accessCost(lb, rb, float64(int64(dim)*m.eb), dst2, tag))
}

// GatherElems gathers single elements at the given global indices into dst.
// Segment size is one element, the worst point of the Figure 8 curve.
func (m *Memory[T]) GatherElems(d *sim.Device, idx []int64, dst []T, tag string) float64 {
	if len(dst) < len(idx) {
		panic("wholemem: GatherElems dst too small")
	}
	rank := m.comm.mustRank(d)
	var nLocal int64
	for i, gi := range idx {
		r, off := m.locate(gi)
		if r == rank {
			nLocal++
		}
		dst[i] = m.at(r, off)
	}
	lb, rb := m.splitBytes(nLocal, int64(len(idx)))
	return d.Kernel(m.accessCost(lb, rb, float64(m.eb), float64(int64(len(idx))*m.eb), tag))
}
