package tensor

import "math/bits"

// Arena is a size-bucketed free list of Dense tensors and raw float32
// slices. It exists to make the steady-state training loop allocation-free:
// every per-iteration scratch tensor (op outputs, gradients, message
// buffers, dropout masks) is drawn from the arena and returned to it when
// the iteration's tape is reset, so the second and every later step reuse
// the first step's memory instead of re-allocating it.
//
// Slabs are bucketed by power-of-two capacity class: a request for n
// elements is served from bucket ceil(log2(n)), whose slabs all have
// capacity >= n. Get zeroes the returned memory, so a pooled tensor is
// indistinguishable from a freshly allocated one — this is what keeps
// pooled and non-pooled runs bit-identical. (GetUninit skips that for
// outputs that are overwritten whole.)
//
// Ownership: an Arena is NOT safe for concurrent use. Under sim.RunParallel
// each worker goroutine owns its own arena (one per training worker, one
// per serving replica), exactly like it owns its device clock; arenas must
// never be shared across slots of a parallel region.
type Arena struct {
	slabs   [48][][]float32
	headers []*Dense

	hits, misses int64
	heldBytes    int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// bucketFor returns the capacity class for a request of n elements
// (n <= 1<<bucketFor(n)).
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// slabClass returns the bucket a slab of the given capacity belongs to
// (1<<slabClass(c) <= c), so a slab popped from bucket b always has
// capacity >= 1<<b.
func slabClass(c int) int {
	if c <= 1 {
		return 0
	}
	return bits.Len(uint(c)) - 1
}

// GetSlice returns a zeroed float32 slice of length n, reusing pooled
// memory when available.
func (a *Arena) GetSlice(n int) []float32 { return a.slab(n, true) }

// slab returns a length-n slice, recycled if the pool has one. A recycled
// slab still holds what its last user left unless zero is set.
func (a *Arena) slab(n int, zero bool) []float32 {
	if n == 0 {
		return nil
	}
	b := bucketFor(n)
	if s := a.slabs[b]; len(s) > 0 {
		v := s[len(s)-1]
		s[len(s)-1] = nil
		a.slabs[b] = s[:len(s)-1]
		v = v[:n]
		if zero {
			clear(v)
		}
		a.hits++
		a.heldBytes -= int64(4 * cap(v))
		return v
	}
	a.misses++
	return make([]float32, n, 1<<b)
}

// PutSlice returns a slice to the pool. The caller must not retain any
// reference to it.
func (a *Arena) PutSlice(v []float32) {
	c := cap(v)
	if c == 0 {
		return
	}
	b := slabClass(c)
	a.slabs[b] = append(a.slabs[b], v[:c])
	a.heldBytes += int64(4 * c)
}

// Get returns a zeroed [r x c] tensor backed by pooled memory. The Dense
// header itself is pooled too, so a warm Get performs no allocation.
func (a *Arena) Get(r, c int) *Dense {
	d := a.header()
	d.R, d.C = r, c
	d.V = a.GetSlice(r * c)
	return d
}

// GetUninit is Get without the zeroing, for a destination the caller
// overwrites in full (the *Into matrix products clear their own): what a
// recycled slab last held is still in it.
func (a *Arena) GetUninit(r, c int) *Dense {
	d := a.header()
	d.R, d.C = r, c
	d.V = a.slab(r*c, false)
	return d
}

// Put returns a tensor (header and values) to the pool. The caller must not
// use d, or any slice of d.V, afterwards.
func (a *Arena) Put(d *Dense) {
	a.PutSlice(d.V)
	a.putHeader(d)
}

// header pops a pooled Dense header (or allocates one).
func (a *Arena) header() *Dense {
	if n := len(a.headers); n > 0 {
		d := a.headers[n-1]
		a.headers[n-1] = nil
		a.headers = a.headers[:n-1]
		return d
	}
	return &Dense{}
}

// putHeader returns just a Dense header to the pool, leaving the value
// slice alone. Tapes use it to recycle view headers whose backing memory
// belongs to another tensor.
func (a *Arena) putHeader(d *Dense) {
	d.R, d.C, d.V = 0, 0, nil
	a.headers = append(a.headers, d)
}

// View returns a pooled [r x c] header wrapping v (not copied, not owned:
// returning the view with PutHeader releases only the header).
func (a *Arena) View(r, c int, v []float32) *Dense {
	if len(v) != r*c {
		panic("tensor: arena view size mismatch")
	}
	d := a.header()
	d.R, d.C, d.V = r, c, v
	return d
}

// PutHeader releases a header obtained from View without touching the
// backing memory.
func (a *Arena) PutHeader(d *Dense) { a.putHeader(d) }

// Reset drops every pooled slab and header, releasing the arena's memory to
// the garbage collector. Call it between workload phases whose tensor
// shapes differ wildly (e.g. switching from training to serving); the
// steady-state loop never needs it.
func (a *Arena) Reset() {
	for i := range a.slabs {
		a.slabs[i] = nil
	}
	a.headers = nil
	a.heldBytes = 0
}

// ArenaStats reports pool effectiveness.
type ArenaStats struct {
	Hits, Misses int64 // slab requests served from / past the pool
	HeldBytes    int64 // bytes currently parked in free lists
}

// Stats returns cumulative hit/miss counts and current pooled bytes.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{Hits: a.hits, Misses: a.misses, HeldBytes: a.heldBytes}
}
