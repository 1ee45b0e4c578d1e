package unique

import "wholegraph/internal/graph"

// sortPair is a (neighbor ID, original position) record for the sort-based
// deduplication ablation.
type sortPair struct {
	key graph.GlobalID
	pos int32
}

// radixSortPairs sorts pairs by key ascending with an LSD radix sort over
// the eight key bytes, ping-ponging between pairs and buf (which must have
// the same length). It returns the slice holding the sorted data — after an
// odd number of passes that is buf, so callers must use the return value.
//
// Each counting pass is stable, so records with equal keys keep their input
// order; since callers build pairs in position order, LSD stability gives
// the (key, pos) tie-break for free without ever comparing pos. Passes
// whose byte is identical across every key (common: GlobalID's high rank
// bytes) are skipped, as a GPU radix sort would skip empty digit bins.
func radixSortPairs(pairs, buf []sortPair) []sortPair {
	if len(pairs) != len(buf) {
		panic("unique: radix buffers length mismatch")
	}
	if len(pairs) < 2 {
		return pairs
	}
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		clear(count[:])
		for _, p := range pairs {
			count[byte(uint64(p.key)>>shift)]++
		}
		if count[byte(uint64(pairs[0].key)>>shift)] == len(pairs) {
			continue // uniform byte: pass is the identity
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, p := range pairs {
			b := byte(uint64(p.key) >> shift)
			buf[count[b]] = p
			count[b]++
		}
		pairs, buf = buf, pairs
	}
	return pairs
}
