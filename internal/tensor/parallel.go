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
//
// The same pool serves Fanout, the host-side fills whose items are
// independent but uneven (a page's rows, an adjacency list): there a task is
// a claimant, and every claimant — the submitter among them — takes the next
// chunk of items from the job's counter until none are left. Cooperate lends
// pool workers to claimants that coordinate among themselves.

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
// the register-blocked tile on the 2-vCPU reference box
// (BenchmarkPoolCrossover, -cpu 2): two workers only tie one at 2^22
// multiply-adds (~160 µs of kernel) even when the pool worker never parks,
// and win from 2^22.6; waking a parked worker costs another ~70 µs. The
// second core is also no longer idle below that size: the loader's run-ahead
// builder works there, and so does a replay's helper (Cooperate). Of the
// benchmark's products only GraphSAGE's [1408 x 200 x 64]-class layer-0
// GEMMs are above it; GAT's head projections, ≈ 1850 x 100 x 16 = 3.0 M
// multiply-adds, are below. It is a variable only
// so that the package's tests can reach the pool with small products
// (smallCutoff); nothing else writes it.
var minParallelWork = 1 << 22

// rowKernel computes output rows [lo, hi) of dst from a and b, using s as
// its working memory.
type rowKernel func(s *scratch, dst, a, b *Dense, lo, hi int)

// job is one kernel call, or one Fanout, in flight.
type job struct {
	kern      rowKernel
	dst, a, b *Dense
	wg        sync.WaitGroup
	scr       scratch // the submitting goroutine's kernel scratch
	bt        Dense   // MatMulTInto's transposed b

	// A Fanout: body over [0, n), claimed chunk items at a time from next.
	// body is nil in a kernel call.
	body     func(claimant, lo, hi int)
	n, chunk int
	next     atomic.Int64
	coop     func(claimant int) // a Cooperate's body
}

// task is a row range [lo, hi) of j's kernel or, when j is a Fanout or a
// Cooperate, claimant number lo.
type task struct {
	j      *job
	lo, hi int
}

// do runs t on a pool worker whose kernel scratch is s.
func (t task) do(s *scratch) {
	switch j := t.j; {
	case j.coop != nil:
		if helping.Add(1) < int64(pool.size) {
			j.coop(t.lo)
		}
		helping.Add(-1)
	case j.body != nil:
		j.claim(t.lo)
	default:
		j.kern(s, j.dst, j.a, j.b, t.lo, t.hi)
	}
	t.j.wg.Done()
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
	size  int
}

// helping counts the pool workers inside a Cooperate body.
var helping atomic.Int64

// startPool launches the persistent workers, once, sized to the physical
// parallelism of the host (not Workers(), which callers may raise and lower
// at will).
func startPool() {
	pool.once.Do(func() {
		n := runtime.NumCPU()
		// Room for every worker to have a few ranges waiting; a full queue
		// is not an error, the submitter runs the range itself.
		pool.tasks = make(chan task, 4*n)
		pool.size = n
		for i := 0; i < n; i++ {
			go func() {
				var s scratch
				for t := range pool.tasks {
					t.do(&s)
				}
			}()
		}
	})
}

// run invokes kern over disjoint row ranges covering [0, rows), in parallel
// when the worker count and the product's size (work = m*k*n multiply-adds)
// warrant it. Ranges are cut on the tile's four-row boundary, so only the
// last one has rows the tile cannot take, and differ in size by at most four
// rows (the last groups%w ranges take an extra group, the last of them short
// by the rows the final group lacks), so no range straggles.
func (j *job) run(kern rowKernel, dst, a, b *Dense, rows, work int) {
	groups := (rows + 3) / 4
	w := min(Workers(), groups)
	if w <= 1 || work < minParallelWork {
		kern(&j.scr, dst, a, b, 0, rows)
		return
	}
	startPool()
	j.kern, j.dst, j.a, j.b = kern, dst, a, b
	base, extra := groups/w, groups%w
	lo := 0
	for i := 0; i < w-1; i++ {
		hi := lo + 4*base
		if i >= w-extra {
			hi += 4
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

// Fanout calls body(claimant, lo, hi) over disjoint chunks of at most chunk
// items that together cover [0, n), on up to w goroutines: the caller, which
// is claimant 0, and w-1 pool workers. Nobody is handed a share in advance —
// each claimant takes the next chunk when it has finished its last — so a
// helper that starts late or is descheduled holds up one chunk, and a helper
// that never starts (the queue was full) holds up nothing. Claimant numbers
// are below w and no two concurrent calls of body share one, which is what
// lets body index per-claimant scratch. With w <= 1, or no more than one
// chunk of items, body runs once, inline, over the whole range. Items must be
// independent: which claimant ran which chunk is not reproducible, so body's
// effect may not depend on it.
//
// Fanout allocates nothing when body is a func value the caller keeps; it
// returns when every item is done. A panic in body on a pool worker is not
// recovered — check arguments before fanning out.
func Fanout(w, n, chunk int, body func(claimant, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk = max(chunk, 1)
	if w = min(w, (n+chunk-1)/chunk); w <= 1 {
		body(0, 0, n)
		return
	}
	j := getJob()
	j.body, j.n, j.chunk = body, n, chunk
	j.next.Store(0)
	j.spread(w)
}

// spread runs j's claimant 0 on the caller and claimants 1 to w-1 on pool
// workers, and hands j back when all are done.
func (j *job) spread(w int) {
	startPool()
	for c := 1; c < w; c++ {
		j.wg.Add(1)
		select {
		case pool.tasks <- task{j: j, lo: c}:
		default:
			// Queue full: the claimants that did start cover its share.
			j.wg.Done()
		}
	}
	if j.coop != nil {
		j.coop(0)
	} else {
		j.claim(0)
	}
	j.wg.Wait()
	j.body, j.coop = nil, nil
	putJob(j)
}

// claim works off chunks of j's Fanout until the counter passes n.
func (j *job) claim(claimant int) {
	for {
		hi := int(j.next.Add(int64(j.chunk)))
		lo := hi - j.chunk
		if lo >= j.n {
			return
		}
		j.body(claimant, lo, min(hi, j.n))
	}
}

// Cooperate calls body(claimant) on the caller, claimant 0, and on up to w-1
// pool workers, and returns when every call has. The calls may wait on one
// another and run dense kernels, which wait on the pool: never holding its
// last worker keeps that deadlock-free, so a pool worker that would take it
// returns at once, and the caller's body must be able to finish alone. It
// allocates nothing when the caller keeps body.
func Cooperate(w int, body func(claimant int)) {
	if w <= 1 {
		body(0)
		return
	}
	j := getJob()
	j.coop = body
	j.spread(w)
}
