package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1), the same
// definition internal/serve uses for its latency percentiles.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// refWorkMs is what boxSpeed's reference work takes on the 2-core box the
// benchmark was defined on when nothing else disturbs it.
const refWorkMs = 6.0

// boxSpeed measures how fast the box runs right now. The benchmark's boxes
// are shared: for minutes at a time the same binary runs up to 1.6 times
// slower, every sample of a run alike, which no statistic taken inside the
// run undoes. So after every timed sample a run times a fixed piece of work
// of the benchmark's own and divides its median host time by how much
// slower than refWorkMs that work ran. The work has a part bound by the
// caches neighbours compete for (a strided walk over 8 MiB) and a part bound
// by the core (two 96×96 matrix products): the workloads slow down with the
// one, the other or both, and neither part alone tracked all four.
type boxSpeed struct {
	mem     []int64
	a, b, c [96 * 96]float32
	workMs  []float64
}

// newBoxSpeed makes room for n samples, so that taking them allocates
// nothing inside the timed section.
func newBoxSpeed(n int) *boxSpeed {
	return &boxSpeed{mem: make([]int64, 1<<20), workMs: make([]float64, 0, n)}
}

// sample times the reference work once.
func (s *boxSpeed) sample() {
	t := time.Now()
	var sum int64
	for off := 0; off < 8; off++ {
		for i := off; i < len(s.mem); i += 8 {
			s.mem[i] += sum
			sum += s.mem[i]
		}
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 96; i++ {
			for k := 0; k < 96; k++ {
				a := s.a[i*96+k] + 1
				for j := 0; j < 96; j++ {
					s.c[i*96+j] += a * s.b[k*96+j]
				}
			}
		}
	}
	s.workMs = append(s.workMs, time.Since(t).Seconds()*1e3)
}

// slowdown is the median reference work as a multiple of refWorkMs.
func (s *boxSpeed) slowdown() float64 { return median(s.workMs) / refWorkMs }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method) — the rule
// the pipeline applies to ten runs of a metric.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ratio is a/b, 0 when b is 0 (a layer that did not run reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff is |a-b| relative to the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// allocMeter reads the heap allocation counters at sample boundaries.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() *allocMeter {
	a := &allocMeter{}
	a.lap()
	return a
}

// lap returns the allocation count and KiB allocated since the previous
// lap (or start) and starts the next interval.
func (a *allocMeter) lap() (allocs, kib float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs, kib = float64(ms.Mallocs-a.mallocs), float64(ms.TotalAlloc-a.bytes)/1024
	a.mallocs, a.bytes = ms.Mallocs, ms.TotalAlloc
	return allocs, kib
}
