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
	var nLocal int64
	for i, row := range rows {
		if m.ReadRow(row, dst[i*dim:(i+1)*dim]) == rank {
			nLocal += int64(dim)
		}
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

// ScatterRows writes rows from src into the allocation at the given row
// indices (row r occupies dim consecutive elements starting at r*dim).
func (m *Memory[T]) ScatterRows(d *sim.Device, rows []int64, dim int, src []T, tag string) float64 {
	if int64(len(src)) < int64(len(rows))*int64(dim) {
		panic("wholemem: ScatterRows src too small")
	}
	m.mustWrite()
	rank := m.comm.mustRank(d)
	var nLocal int64
	for i, row := range rows {
		start := row * int64(dim)
		r, off := m.locate(start)
		if r == rank {
			nLocal += int64(dim)
		}
		copy(m.shards[r][off:off+int64(dim)], src[i*dim:(i+1)*dim])
	}
	lb, rb := m.splitBytes(nLocal, int64(len(rows))*int64(dim))
	return d.Kernel(m.accessCost(lb, rb, float64(int64(dim)*m.eb),
		float64(int64(len(rows))*int64(dim)*m.eb), tag))
}

// ReadRange reads count consecutive elements starting at global index start
// into dst. Contiguous ranges achieve near-peak bandwidth (large segments).
func (m *Memory[T]) ReadRange(d *sim.Device, start, count int64, dst []T, tag string) float64 {
	if int64(len(dst)) < count {
		panic("wholemem: ReadRange dst too small")
	}
	rank := m.comm.mustRank(d)
	var nLocal int64
	for i := int64(0); i < count; {
		r, off := m.locate(start + i)
		n := min(m.ShardLen(r)-off, count-i)
		m.read(r, off, dst[i:i+n])
		if r == rank {
			nLocal += n
		}
		i += n
	}
	lb, rb := m.splitBytes(nLocal, count)
	cost := m.accessCost(lb, rb, 4096, float64(count*m.eb), tag)
	// Sequential local reads stream rather than random-access.
	cost.StreamBytes += cost.RandBytes
	cost.RandBytes = 0
	return d.Kernel(cost)
}
