// Package wholemem implements the multi-GPU distributed shared memory
// library of WholeGraph (paper §III-B) on top of the simulated machine.
//
// Real WholeGraph allocates one chunk per GPU with cudaMalloc, exports each
// chunk with cudaIpcGetMemHandle, AllGathers the handles across the
// one-process-per-GPU ranks, opens them with cudaIpcOpenMemHandle and stores
// the mapped pointers in a per-device Memory Pointer Table, after which any
// GPU can load/store any other GPU's memory from inside a CUDA kernel over
// NVLink. This package reproduces that protocol: chunks are Go slices, IPC
// handles are exchanged through a simulated AllGather that charges the setup
// cost, and kernel-side accesses charge the local-vs-remote cost model.
package wholemem

import (
	"fmt"

	"wholegraph/internal/sim"
)

// Comm is the communicator of one machine node: the set of device ranks
// that share memory with each other (peer access works within a node).
type Comm struct {
	Devs []*sim.Device
}

// NewComm creates a communicator over the devices of one machine node.
// All devices must belong to the same node: NVLink peer access does not
// cross node boundaries.
func NewComm(devs []*sim.Device) (*Comm, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("wholemem: empty communicator")
	}
	node := devs[0].Node
	for _, d := range devs {
		if d.Node != node {
			return nil, fmt.Errorf("wholemem: device %d is on node %d, communicator is on node %d",
				d.ID, d.Node, node)
		}
	}
	return &Comm{Devs: devs}, nil
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.Devs) }

// Elem constrains the element types a Memory can hold. The fixed set keeps
// element sizes known without unsafe.
type Elem interface {
	~float32 | ~int32 | ~int64 | ~uint32 | ~uint64 | ~int8
}

func elemBytes[T Elem]() int64 {
	var v T
	switch any(v).(type) {
	case float32, int32, uint32:
		return 4
	case int64, uint64:
		return 8
	case int8:
		return 1
	}
	// All cases of Elem are covered above; ~-types dispatch via the
	// underlying type of the zero value, so this is unreachable.
	panic("wholemem: unknown element type")
}

// ipcHandle stands in for a cudaIpcMemHandle_t: an opaque token a peer
// process converts back into a device pointer.
type ipcHandle struct {
	rank int
	mem  int // allocation serial within the rank
}

// Memory is one distributed shared allocation: n elements of type T
// partitioned across the communicator's devices. The partition is either
// equal chunks (Alloc), caller-controlled shards (AllocSharded, Map),
// which is how the graph layer stores hash-partitioned nodes, or a view of
// elements held elsewhere (View).
type Memory[T Elem] struct {
	comm   *Comm
	n      int64
	shards [][]T   // pointer table entry per rank, as mapped by IPC; read-only outer slice; nil for a view
	starts []int64 // global element index where each shard begins
	eb     int64
	kind   Kind

	// A view's reader (View) and row shape: firstRow[r] is the global row
	// index of rank r's first row of width elements.
	view     func(r int, li, k int64, dst []T) int
	width    int64
	firstRow []int64
}

// Alloc creates a shared allocation of n elements split into near-equal
// chunks across the communicator, performing (and charging) the full IPC
// setup protocol on every rank's clock.
func Alloc[T Elem](c *Comm, n int64) *Memory[T] {
	k := int64(c.Size())
	chunk := (n + k - 1) / k
	sizes := make([]int64, k)
	left := n
	for i := range sizes {
		s := chunk
		if s > left {
			s = left
		}
		sizes[i] = s
		left -= s
	}
	return AllocSharded[T](c, sizes)
}

// AllocSharded creates a shared allocation with an explicit number of
// elements on each rank. len(sizes) must equal the communicator size.
func AllocSharded[T Elem](c *Comm, sizes []int64) *Memory[T] {
	shards := make([][]T, len(sizes))
	for r, n := range sizes {
		shards[r] = make([]T, n)
	}
	return Map(c, shards)
}

// Map makes host shards, one per rank, a shared allocation: every rank is
// charged the malloc of its shard and the IPC setup protocol exactly as
// AllocSharded charges them, but the shards are the caller's slices, not
// copies. Allocations that map the same shards share their elements and
// nothing else: each has its own Kind. len(shards) must equal the
// communicator size.
func Map[T Elem](c *Comm, shards [][]T) *Memory[T] {
	sizes := make([]int64, len(shards))
	for r, s := range shards {
		sizes[r] = int64(len(s))
	}
	return setup(c, &Memory[T]{shards: shards}, sizes)
}

// View is Map over shards the allocation does not hold: rank r's shard is
// rows[r] rows of width elements, and read(r, li, k, dst), called from
// several goroutines at once, copies elements k and on of its local row li
// into dst, as many as fit before the row ends, and returns how many. A view
// is read-only: Set and FillFrom panic on it.
func View[T Elem](c *Comm, rows []int64, width int64, read func(r int, li, k int64, dst []T) int) *Memory[T] {
	m := &Memory[T]{view: read, width: width, firstRow: make([]int64, len(rows))}
	sizes := make([]int64, len(rows))
	for r, n := range rows {
		sizes[r] = n * width
		if r > 0 {
			m.firstRow[r] = m.firstRow[r-1] + rows[r-1]
		}
	}
	return setup(c, m, sizes)
}

// setup places m, with sizes[r] elements on rank r, on c, charging every
// rank the malloc of its shard and the IPC setup protocol.
func setup[T Elem](c *Comm, m *Memory[T], sizes []int64) *Memory[T] {
	if len(sizes) != c.Size() {
		panic(fmt.Sprintf("wholemem: %d shards for %d ranks", len(sizes), c.Size()))
	}
	m.comm, m.eb = c, elemBytes[T]()
	handles := make([]ipcHandle, c.Size())
	// Step 1: every rank cudaMallocs its local chunk and exports an IPC
	// handle (cudaIpcGetMemHandle).
	for r, d := range c.Devs {
		m.starts = append(m.starts, m.n)
		n := sizes[r]
		m.n += n
		d.Malloc(float64(n * m.eb))
		handles[r] = ipcHandle{rank: r, mem: r + 1}
	}
	// Step 2: AllGather the handles so each rank holds all of them, issued
	// through the step-level engine so the ring transfers occupy the links
	// and show up in comm traces like every other collective.
	if len(c.Devs) > 1 {
		sim.StartRingAllGather(c.Devs, float64(len(handles)*16), sim.CollOpts{Tag: "ipc.allgather"}).Wait()
	}
	for _, d := range c.Devs {
		d.IdleFor(d.Machine().Cfg.Link.IPCExchange, "ipc")
	}
	// Step 3: each rank opens every peer handle (cudaIpcOpenMemHandle) and
	// fills its Memory Pointer Table. In this simulation the table is the
	// shared shards slice itself; the handles carry no information beyond
	// identifying the shard, exactly like the opaque CUDA handle.
	for r := range handles {
		if handles[r].rank != r {
			panic("wholemem: handle exchange corrupted")
		}
	}
	sim.Barrier(c.Devs)
	return m
}

// Len returns the total number of elements.
func (m *Memory[T]) Len() int64 { return m.n }

// Bytes returns the total allocation size in bytes.
func (m *Memory[T]) Bytes() int64 { return m.n * m.eb }

// Comm returns the communicator the memory is allocated over.
func (m *Memory[T]) Comm() *Comm { return m.comm }

// RankOf returns the rank holding global element index i.
func (m *Memory[T]) RankOf(i int64) int {
	// Shards are contiguous in global index order; binary search.
	lo, hi := 0, len(m.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.starts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Shard returns rank r's local slice (the memory behind its pointer-table
// entry). Host-side construction code uses this to fill data in place. A
// view's Shard is a copy read through the view.
func (m *Memory[T]) Shard(r int) []T {
	if m.view != nil {
		s := make([]T, m.ShardLen(r))
		m.read(r, 0, s)
		return s
	}
	return m.shards[r]
}

// ShardLen returns the number of elements on rank r.
func (m *Memory[T]) ShardLen(r int) int64 {
	if r+1 < len(m.starts) {
		return m.starts[r+1] - m.starts[r]
	}
	return m.n - m.starts[r]
}

func (m *Memory[T]) read(r int, off int64, dst []T) {
	if m.view == nil {
		copy(dst, m.shards[r][off:off+int64(len(dst))])
		return
	}
	for len(dst) > 0 {
		n := m.view(r, off/m.width, off%m.width, dst)
		dst, off = dst[n:], off+int64(n)
	}
}

// ReadRow copies row row of len(dst) elements, global elements
// row*len(dst) on, into dst without charging any cost, and returns the rank
// holding it.
func (m *Memory[T]) ReadRow(row int64, dst []T) int {
	r, off := m.locate(row * int64(len(dst)))
	if m.view != nil && int64(len(dst)) == m.width {
		m.view(r, row-m.firstRow[r], 0, dst)
	} else {
		m.read(r, off, dst)
	}
	return r
}

func (m *Memory[T]) mustWrite() {
	if m.view != nil {
		panic("wholemem: write through a read-only view")
	}
}

// ShardStart returns the global element index where rank r's shard begins.
func (m *Memory[T]) ShardStart(r int) int64 { return m.starts[r] }

// locate converts a global index to (rank, local offset).
func (m *Memory[T]) locate(i int64) (int, int64) {
	r := m.RankOf(i)
	return r, i - m.starts[r]
}

// Get reads element i without charging any cost. It is for host-side graph
// construction and tests; kernels use the charged bulk operations.
func (m *Memory[T]) Get(i int64) T {
	r, off := m.locate(i)
	return m.at(r, off)
}

func (m *Memory[T]) at(r int, off int64) T {
	if m.view == nil {
		return m.shards[r][off]
	}
	var x [1]T
	m.read(r, off, x[:])
	return x[0]
}

// Set writes element i without charging any cost (host-side construction).
func (m *Memory[T]) Set(i int64, v T) {
	m.mustWrite()
	r, off := m.locate(i)
	m.shards[r][off] = v
}

// FillFrom copies src into the allocation starting at global element 0.
func (m *Memory[T]) FillFrom(src []T) {
	m.mustWrite()
	if int64(len(src)) > m.n {
		panic("wholemem: FillFrom source larger than allocation")
	}
	off := int64(0)
	for r := range m.shards {
		s := m.shards[r]
		for j := range s {
			if off >= int64(len(src)) {
				return
			}
			s[j] = src[off]
			off++
		}
	}
}
