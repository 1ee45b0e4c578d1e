package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFanoutCoversOnce checks the contract of Fanout for every shape of call:
// each item is handed out exactly once, in chunks of at most chunk items,
// claimant numbers stay below w, and a call with one claimant or one chunk is
// one inline call over the whole range.
func TestFanoutCoversOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, chunk := range []int{0, 1, 7, 64, 5000} {
				covered := make([]atomic.Int32, n)
				var calls, inlineCalls atomic.Int32
				Fanout(w, n, chunk, func(claimant, lo, hi int) {
					calls.Add(1)
					if claimant < 0 || claimant >= max(w, 1) || lo < 0 || hi > n || lo >= hi {
						t.Errorf("w=%d n=%d chunk=%d: body(%d, %d, %d)", w, n, chunk, claimant, lo, hi)
						return
					}
					if lo == 0 && hi == n {
						inlineCalls.Add(1)
					} else if hi-lo > max(chunk, 1) {
						t.Errorf("w=%d n=%d chunk=%d: chunk [%d,%d) too large", w, n, chunk, lo, hi)
					}
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				})
				for i := range covered {
					if c := covered[i].Load(); c != 1 {
						t.Fatalf("w=%d n=%d chunk=%d: item %d covered %d times", w, n, chunk, i, c)
					}
				}
				if single := w <= 1 || n <= max(chunk, 1); single && n > 0 && (calls.Load() != 1 || inlineCalls.Load() != 1) {
					t.Errorf("w=%d n=%d chunk=%d: %d calls, want one inline call", w, n, chunk, calls.Load())
				}
			}
		}
	}
}

// TestFanoutClaimantsOwnScratch has every claimant write plain (unlocked)
// per-claimant state, from many concurrent callers nested under a busy pool:
// under -race a claimant number shared by two goroutines at once is a report,
// and the sums show no item was lost.
func TestFanoutClaimantsOwnScratch(t *testing.T) {
	const callers, w, n = 6, 4, 3000
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sums [w]int
			body := func(claimant, lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[claimant] += i
				}
				runtime.Gosched()
			}
			for rep := 0; rep < 20; rep++ {
				sums = [w]int{}
				Fanout(w, n, 16, body)
				total := 0
				for _, s := range sums {
					total += s
				}
				if total != n*(n-1)/2 {
					t.Errorf("items summed to %d, want %d", total, n*(n-1)/2)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFanoutSaturatedQueue parks every pool worker behind a full queue: no
// helper can start, and the submitter must finish the range alone.
func TestFanoutSaturatedQueue(t *testing.T) {
	startPool()
	gate := make(chan struct{})
	blocker := getJob()
	blocker.kern = func(*scratch, *Dense, *Dense, *Dense, int, int) { <-gate }
	parked := runtime.NumCPU() + cap(pool.tasks)
	blocker.wg.Add(parked)
	for i := 0; i < parked; i++ {
		pool.tasks <- task{blocker, 0, 0}
	}
	done := 0
	Fanout(4, 100, 8, func(claimant, lo, hi int) {
		if claimant != 0 {
			t.Errorf("claimant %d ran although the pool was parked", claimant)
		}
		done += hi - lo
	})
	if done != 100 {
		t.Errorf("submitter covered %d of 100 items", done)
	}
	close(gate)
	blocker.wg.Wait()
	blocker.kern = nil
	putJob(blocker)
}

func TestFanoutAllocFree(t *testing.T) {
	var sink [4]int
	body := func(claimant, lo, hi int) { sink[claimant] += hi - lo }
	Fanout(4, 512, 8, body) // start the pool, make the job record
	if a := testing.AllocsPerRun(50, func() { Fanout(4, 512, 8, body) }); a != 0 {
		t.Errorf("Fanout allocates %v objects per call", a)
	}
}

// fillSink keeps BenchmarkFillFanout's draws alive.
var fillSink [2]uint64

// BenchmarkFillFanout is what blockcache's fanoutMinBytes (the size below
// which a paged store fills a batch inline) was read from: a batch of n page
// fills of ~1 µs each — one generated feature row, or a fifth of a run of
// generated edges — on the calling goroutine (/inline) and claimed in chunks
// of 16 by the caller and one pool worker (/fanout). The fan-out wins from
// the size at which /fanout drops below /inline; run it with -cpu 2 (at
// -cpu 1 it can only lose, by the cost of the hand-over).
func BenchmarkFillFanout(b *testing.B) {
	body := func(claimant, lo, hi int) {
		x := fillSink[claimant]
		for i := lo; i < hi; i++ {
			// 512 dependent multiply-xorshift rounds: about a microsecond,
			// what generating and encoding a 128-wide row costs.
			s := uint64(i)
			for r := 0; r < 512; r++ {
				s += 0x9e3779b97f4a7c15
				s = (s ^ s>>30) * 0xbf58476d1ce4e5b9
			}
			x ^= s
		}
		fillSink[claimant] = x
	}
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024, 2048} {
		for _, mode := range []struct {
			name string
			w    int
		}{{"inline", 1}, {"fanout", 2}} {
			b.Run(fmt.Sprintf("%s/fills=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Fanout(mode.w, n, 16, body)
				}
			})
		}
	}
}
