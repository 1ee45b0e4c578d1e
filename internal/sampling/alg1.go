// Package sampling implements neighbor sampling: the paper's Algorithm 1
// (fully parallel random sampling without replacement via path doubling,
// §III-C1), the multi-GPU neighbor sampler built on it, and the CPU
// samplers used by the DGL-like and PyG-like baselines.
package sampling

import "math/rand"

// SampleWithoutReplacement draws m distinct values from [0, n) following the
// paper's Algorithm 1. The algorithm is data-parallel on a GPU; here the
// "parallel for" loops run sequentially but preserve the exact dataflow,
// including the pack-into-64-bit radix sort trick and the path-doubling
// collision resolution. When m >= n it returns the identity selection; when
// m <= 0 or n <= 0 it draws nothing.
func SampleWithoutReplacement(m, n int, rng *rand.Rand) []int64 {
	var sc Scratch
	return sc.SampleWithoutReplacement(m, n, rng)
}

// resolveWithoutReplacement runs lines 3-22 of Algorithm 1 on a prepared
// random array r (r[i] uniform in [0, n-1-i]). Exposed separately so tests
// can drive it with a fixed r and compare against the sequential reference.
func resolveWithoutReplacement(r []int64, n int) []int64 {
	var sc Scratch
	return sc.resolve(r, n)
}

// parallelSort is the one-shot form of Scratch.parallelSort.
func parallelSort(r []int64) (s, p []int64) {
	var sc Scratch
	return sc.parallelSort(r)
}

// radixSort64 sorts keys ascending with an LSD byte radix sort, the
// standard GPU-friendly sort the paper uses.
func radixSort64(keys []uint64) {
	radixSort64Buf(keys, make([]uint64, len(keys)))
}

// insertionSortMax is the largest key count sorted by insertion instead of by
// counting passes. A pass clears and prefix-sums 256 counters whatever n is,
// and Algorithm 1 sorts one key per sampled neighbour — 5 to 30 of them — so
// below this size the eight passes are nearly all counter traffic.
// BenchmarkSortCutoff sizes it: on Algorithm 1's keys insertion sort is 20x
// faster at 5 keys (30 ns against 640), 2x at 32, level with the passes
// between 64 and 96 keys and slower from 128.
const insertionSortMax = 48

// radixSort64Buf is radixSort64 with a caller-supplied ping-pong buffer of
// the same length, so steady-state callers can reuse it across sorts. Both
// branches produce the ascending order of the key values, so which one ran
// is invisible in the result (and Algorithm 1's keys are distinct anyway:
// the index sits in the low half).
func radixSort64Buf(keys, buf []uint64) {
	if len(keys) <= insertionSortMax {
		insertionSort64(keys)
		return
	}
	radixPasses64(keys, buf)
}

func insertionSort64(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// radixPasses64 is the eight-pass LSD byte radix sort proper.
func radixPasses64(keys, buf []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	src, dst := keys, buf
	for shift := 0; shift < 64; shift += 8 {
		var counts [256]int
		for _, k := range src {
			counts[byte(k>>shift)]++
		}
		if counts[byte(src[0]>>shift)] == n {
			continue // all keys share this byte: pass is a no-op
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[counts[b]] = k
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// pathDoubling applies chain[i] = chain[chain[i]] until fixpoint, in
// O(log m) rounds as on the GPU.
func pathDoubling(chain []int64) {
	for {
		changed := false
		for i := range chain {
			c := chain[chain[i]]
			if c != chain[i] {
				chain[i] = c
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// sequentialSampleRef is the sequential robust Fisher-Yates reference that
// Algorithm 1 parallelizes: res[i] is the value at virtual position r[i],
// after which the value at position n-1-i moves into r[i]. Tests compare
// the parallel resolution against it on identical r arrays.
func sequentialSampleRef(r []int64, n int) []int64 {
	arr := make(map[int64]int64)
	get := func(pos int64) int64 {
		if v, ok := arr[pos]; ok {
			return v
		}
		return pos
	}
	res := make([]int64, len(r))
	for i, pos := range r {
		res[i] = get(pos)
		arr[pos] = get(int64(n - 1 - i))
	}
	return res
}
