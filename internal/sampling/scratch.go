package sampling

import "math/rand"

// Scratch is a reusable workspace for Algorithm 1: the random array, the
// collision chain, the packed radix-sort keys and their ping-pong buffer,
// and every intermediate of the parallel resolution persist across calls,
// so per-target sampling inside the steady-state loop allocates nothing
// after warm-up. A Scratch is owned by one goroutine (each GPUSampler
// embeds its own); the slice returned by SampleWithoutReplacement is valid
// only until the next call.
type Scratch struct {
	r, chain, s, p, q, last, res []int64
	keys, buf                    []uint64
}

// grow64 returns v resized to n elements, reallocating only when capacity
// is insufficient. Contents are unspecified: every caller fully overwrites.
func grow64(v []int64, n int) []int64 {
	if cap(v) < n {
		return make([]int64, n)
	}
	return v[:n]
}

func growU64(v []uint64, n int) []uint64 {
	if cap(v) < n {
		return make([]uint64, n)
	}
	return v[:n]
}

// SampleWithoutReplacement is the scratch-backed form of the package-level
// function: same algorithm, same rng consumption, same results, but all
// intermediates live in sc and the returned slice is overwritten by the
// next call.
func (sc *Scratch) SampleWithoutReplacement(m, n int, rng *rand.Rand) []int64 {
	if m <= 0 || n <= 0 {
		return sc.res[:0]
	}
	if m >= n {
		sc.res = grow64(sc.res, n)
		for i := range sc.res {
			sc.res[i] = int64(i)
		}
		return sc.res
	}
	sc.r = grow64(sc.r, m)
	for i := 0; i < m; i++ {
		// random(N-1-i): uniform in [0, n-1-i].
		sc.r[i] = int64(rng.Intn(n - i))
	}
	return sc.resolve(sc.r, n)
}

// resolve runs lines 3-22 of Algorithm 1 on a prepared random array r
// (r[i] uniform in [0, n-1-i]) using the scratch's buffers.
func (sc *Scratch) resolve(r []int64, n int) []int64 {
	m := len(r)
	sc.chain = grow64(sc.chain, m)
	chain := sc.chain
	for i := range chain {
		chain[i] = int64(i)
	}

	// parallel_sort: pack value<<32|index into one 64-bit key and radix
	// sort, recovering both the sorted values s and original indices p.
	s, p := sc.parallelSort(r)

	sc.q = grow64(sc.q, m)
	q := sc.q
	for i := 0; i < m; i++ {
		q[p[i]] = int64(i)
	}
	for i := 0; i < m; i++ {
		if (i == m-1 || s[i] != s[i+1]) && s[i] >= int64(n-m) {
			chain[int64(n)-s[i]-1] = p[i]
		}
	}
	pathDoubling(chain)
	sc.last = grow64(sc.last, m)
	last := sc.last
	for i := 0; i < m; i++ {
		last[i] = int64(n) - chain[i] - 1
	}
	sc.res = grow64(sc.res, m)
	res := sc.res
	for i := 0; i < m; i++ {
		qi := q[i]
		if i == 0 || qi == 0 || s[qi] != s[qi-1] {
			res[i] = r[i]
		} else {
			res[i] = last[p[qi-1]]
		}
	}
	return res
}

// parallelSort implements the paper's parallel_sort on scratch buffers: the
// 32-bit values and their indices are packed into 64-bit keys (value in the
// high half, index in the low half) and radix-sorted, yielding the sorted
// values and the stable original-index permutation in one pass.
func (sc *Scratch) parallelSort(r []int64) (s, p []int64) {
	m := len(r)
	sc.keys = growU64(sc.keys, m)
	sc.buf = growU64(sc.buf, m)
	keys := sc.keys
	for i, v := range r {
		keys[i] = uint64(v)<<32 | uint64(uint32(i))
	}
	radixSort64Buf(keys, sc.buf)
	sc.s = grow64(sc.s, m)
	sc.p = grow64(sc.p, m)
	s, p = sc.s, sc.p
	for i, k := range keys {
		s[i] = int64(k >> 32)
		p[i] = int64(uint32(k))
	}
	return s, p
}
