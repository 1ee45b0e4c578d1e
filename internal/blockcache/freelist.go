package blockcache

// FreeList recycles page buffers for the store that owns a BlockCache,
// so steady-state fault service allocates nothing. Put and PutPrefetched
// append the blocks they leave outside the cache to Dropped; the store
// calls Release when the batch of reads it is serving ends, and only
// then do those blocks become available to Take. The delay is the point:
// a batch pins every page it touched until it ends, and a later miss in
// the same batch can evict one of them, so a dropped block may still be
// read right up to that moment.
//
// Like the rest of a store's per-device scratch, a FreeList belongs to
// the one goroutine driving its device.
type FreeList[P Block] struct {
	Dropped []Block
	free    []P
	// Max bounds the blocks kept for reuse; a Table sets it to the page
	// count of the cache plus that of the largest batch it has served, which
	// is everything that batch can drop.
	Max int
}

// Take returns a block to reuse, or false when none is free.
func (f *FreeList[P]) Take() (p P, ok bool) {
	n := len(f.free)
	if n == 0 {
		return p, false
	}
	p, f.free = f.free[n-1], f.free[:n-1]
	return p, true
}

// Release makes every dropped block reusable; surplus beyond Max is left
// to the garbage collector.
func (f *FreeList[P]) Release() {
	for _, b := range f.Dropped {
		if len(f.free) < f.Max {
			f.free = append(f.free, b.(P))
		}
	}
	clear(f.Dropped)
	f.Dropped = f.Dropped[:0]
}
