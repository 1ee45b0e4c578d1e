package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Host-side parallelism for the matrix kernels. Output rows of a matrix
// product are independent, so splitting them across goroutines changes
// nothing numerically — results are bit-identical to the serial path. The
// worker count defaults to GOMAXPROCS and can be pinned for reproducible
// benchmarking.
//
// Work runs on a lazily started persistent pool rather than per-call
// goroutines: a kernel call enqueues its row ranges on a shared task channel
// and executes the last range itself. When the queue is full (e.g. many
// simulated devices inside sim.RunParallel all hitting dense kernels at
// once) the submitting goroutine runs the range inline, which both bounds
// memory and makes nested parallelism deadlock-free.
//
// Dispatch allocates nothing: a task is a value (job pointer plus row
// range), and the job record — the kernel's operands, the join, and the
// submitting goroutine's kernel scratch — is recycled through a free list.
// Ownership: a job belongs to the goroutine that took it from getJob until
// it hands it back with putJob; pool workers only read its operands, between
// the send of a task and that task's Done, and bring their own scratch.

var numWorkers int64 = int64(runtime.GOMAXPROCS(0))

// SetWorkers sets the number of goroutines row-parallel kernels may use
// (minimum 1) and returns the previous setting. SetWorkers(1) disables
// chunking entirely; the pool itself persists once started.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&numWorkers, int64(n)))
}

// Workers returns the current worker count.
func Workers() int { return int(atomic.LoadInt64(&numWorkers)) }

// minParallelWork is the number of multiply-adds (m*k*n) below which a
// product runs on the calling goroutine. It is the crossover measured with
// the vector kernels on the 2-vCPU reference box (BenchmarkPoolCrossover,
// -cpu 2): two workers only tie one up to 2^22 multiply-adds (~350 µs of
// kernel) even when the pool worker never parks, and win from there; waking
// a parked worker costs another ~70 µs. The second core is also no longer
// idle below that size: the loader's run-ahead builder works there. Of the
// benchmark's products only the [1408 x 200 x 64]-class layer-0 GEMMs and
// GAT's [10000 x 100 x 16] projections are above it. It is a variable only so
// that the package's tests can reach the pool with small products
// (smallCutoff); nothing else writes it.
var minParallelWork = 1 << 22

// rowKernel computes output rows [lo, hi) of dst from a and b, using s as
// its working memory.
type rowKernel func(s *scratch, dst, a, b *Dense, lo, hi int)

// job is one kernel call in flight.
type job struct {
	kern      rowKernel
	dst, a, b *Dense
	wg        sync.WaitGroup
	scr       scratch // the submitting goroutine's kernel scratch
	bt        Dense   // MatMulTInto's transposed b
}

type task struct {
	j      *job
	lo, hi int
}

// jobs is the free list of job records. 64 is more than the goroutines ever
// inside a kernel at once (sim.RunParallel runs at most one per simulated
// GPU of a node); past that, records are simply allocated and dropped.
var jobs = make(chan *job, 64)

func getJob() *job {
	select {
	case j := <-jobs:
		return j
	default:
		return new(job)
	}
}

func putJob(j *job) {
	select {
	case jobs <- j:
	default:
	}
}

var pool struct {
	once  sync.Once
	tasks chan task
}

// startPool launches the persistent workers, once, sized to the physical
// parallelism of the host (not Workers(), which callers may raise and lower
// at will).
func startPool() {
	pool.once.Do(func() {
		n := runtime.NumCPU()
		// Room for every worker to have a few ranges waiting; a full queue
		// is not an error, the submitter runs the range itself.
		pool.tasks = make(chan task, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				var s scratch
				for t := range pool.tasks {
					t.j.kern(&s, t.j.dst, t.j.a, t.j.b, t.lo, t.hi)
					t.j.wg.Done()
				}
			}()
		}
	})
}

// run invokes kern over disjoint row ranges covering [0, rows), in parallel
// when the worker count and the product's size (work = m*k*n multiply-adds)
// warrant it. Range sizes differ by at most one row (the first rows%w
// ranges take the extra row), so no tail range straggles.
func (j *job) run(kern rowKernel, dst, a, b *Dense, rows, work int) {
	w := min(Workers(), rows)
	if w <= 1 || work < minParallelWork {
		kern(&j.scr, dst, a, b, 0, rows)
		return
	}
	startPool()
	j.kern, j.dst, j.a, j.b = kern, dst, a, b
	base, extra := rows/w, rows%w
	lo := 0
	for i := 0; i < w-1; i++ {
		hi := lo + base
		if i < extra {
			hi++
		}
		j.wg.Add(1)
		select {
		case pool.tasks <- task{j, lo, hi}:
		default:
			// Queue full: run inline on the submitter.
			kern(&j.scr, dst, a, b, lo, hi)
			j.wg.Done()
		}
		lo = hi
	}
	// The caller works the final range itself instead of idling in Wait.
	kern(&j.scr, dst, a, b, lo, rows)
	j.wg.Wait()
	j.kern, j.dst, j.a, j.b = nil, nil, nil, nil
}
