package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"wholegraph/internal/dataset"
	"wholegraph/internal/gnn"
	"wholegraph/internal/serve"
	"wholegraph/internal/sim"
	"wholegraph/internal/spops"
)

// serveStep is one open-loop run at a fixed offered rate.
type serveStep struct {
	name     string
	rate     float64
	requests int
}

// stepOutcome is what one step measured. Counters the server accumulates
// across runs (batches, cache hits) are reported as this step's delta.
type stepOutcome struct {
	step        serveStep
	hostSec     float64
	allocs, kib float64 // heap allocations during the step (untraced run only)
	res         *serve.Result
	batches     int
	hitRate     float64
}

// kops is the step's op count: thousands of offered requests.
func (s *stepOutcome) kops() float64 { return float64(s.res.Offered) / 1e3 }

func (s *stepOutcome) failFrac() float64 {
	return ratio(float64(s.res.Shed+s.res.TimedOut), float64(s.res.Offered))
}

// hostMsPerOp is host milliseconds per 1000 offered requests.
func (s *stepOutcome) hostMsPerOp() float64 {
	return s.hostSec * 1e3 / s.kops()
}

// serveRun is one built serving stack.
type serveRun struct {
	spec serveSpec
	ds   *dataset.Dataset
	m    *sim.Machine
	srv  *serve.Server
	warm *serve.Result
	rec  *recorder // nil for the untraced run

	newHostSec  float64 // host seconds inside serve.New (store, caches, replicas)
	steps       int     // Run calls so far
	prevBatches int
	prevHits    int64
	prevMisses  int64
}

func (s serveSpec) machineConfig() sim.MachineConfig {
	cfg := sim.DGXA100(1)
	cfg.GPUsPerNode = s.replicas
	return cfg
}

func (s serveSpec) modelConfig(ds *dataset.Dataset, seed int64) gnn.Config {
	return gnn.Config{
		InDim: ds.Spec.FeatDim, Hidden: s.hidden, Classes: ds.Spec.NumClasses,
		Layers: len(s.fanouts), Backend: spops.BackendNative, Seed: seed,
	}
}

// buildServer deploys an untrained GraphSAGE on a fresh machine.
func buildServer(spec serveSpec, ds *dataset.Dataset, seed int64, rec *recorder) (*serveRun, error) {
	run := &serveRun{spec: spec, ds: ds, m: sim.NewMachine(spec.machineConfig()), rec: rec}
	t0 := time.Now()
	id := rec.begin("serve.New", 0, 0)
	var err error
	run.srv, err = serve.New(run.m, 0, ds, gnn.NewSAGE(spec.modelConfig(ds, seed)), serve.Options{
		Rate: spec.rLow, Requests: spec.warmRequests,
		MaxBatch: spec.maxBatch, MaxDelay: spec.maxDelay,
		SLO: spec.slo, Deadline: spec.slo,
		CacheRows: spec.cacheRows, Fanouts: spec.fanouts, Skew: spec.skew,
		Policy: serve.PolicyCacheAware, Seed: seed,
	})
	rec.end(id, run.m.MaxTime())
	run.newHostSec = time.Since(t0).Seconds()
	return run, err
}

// step serves one open-loop stream from zeroed clocks.
func (r *serveRun) step(st serveStep) (*stepOutcome, error) {
	r.m.Reset()
	r.srv.Opts.Rate, r.srv.Opts.Requests = st.rate, st.requests
	t0 := time.Now()
	id := r.rec.begin("serve.Run", r.steps, 0)
	res, err := r.srv.Run()
	r.rec.end(id, r.m.MaxTime())
	if err != nil {
		return nil, err
	}
	r.steps++
	out := &stepOutcome{step: st, hostSec: time.Since(t0).Seconds(), res: res}
	out.batches = res.Batches - r.prevBatches
	r.prevBatches = res.Batches
	var hits, misses int64
	for _, c := range r.srv.Caches() {
		if c != nil {
			hits += c.Hits
			misses += c.Misses
		}
	}
	out.hitRate = ratio(float64(hits-r.prevHits), float64(hits-r.prevHits+misses-r.prevMisses))
	r.prevHits, r.prevMisses = hits, misses
	return out, nil
}

func (r *serveRun) warmUp() error {
	out, err := r.step(serveStep{"warm", r.spec.rLow, r.spec.warmRequests})
	if err != nil {
		return err
	}
	r.warm = out.res
	return nil
}

// sameServe reports whether two runs of the same stream agree in every
// virtual number and count.
func sameServe(a, b *serve.Result) bool {
	return a.Offered == b.Offered && a.Served == b.Served && a.Shed == b.Shed &&
		a.TimedOut == b.TimedOut && a.Duration == b.Duration && a.P50 == b.P50 &&
		a.P99 == b.P99 && a.MaxLatency == b.MaxLatency && a.MeanLatency == b.MeanLatency
}

// serveSchedule is the step list of one run as a state machine: three
// fixed rates, then a bisection whose rates depend on the outcomes so far.
type serveSchedule struct {
	fixed           []serveStep
	bisectSteps     int
	bisectReqs      int
	lo, hi          float64 // bisection bracket; lo is the answer at the end
	slo, maxFail    float64
	outcomes        []*stepOutcome
	low, knee, over *stepOutcome
}

// newSchedule sizes the steps: frac scales the request counts (the traced
// run serves a fifth), toy pins them to smoke-test size.
func newSchedule(spec serveSpec, seconds, frac float64, toy bool) *serveSchedule {
	fixed := scaleOps(int(float64(spec.fixedRequests)*frac), seconds, 1000)
	bisect := scaleOps(int(float64(spec.bisectRequests)*frac), seconds, 1000)
	steps := spec.bisectSteps
	if toy {
		fixed, bisect, steps = 2000, 1000, 2
	}
	return &serveSchedule{
		fixed: []serveStep{
			{"r_low", spec.rLow, fixed}, {"r_knee", spec.rKnee, fixed}, {"r_over", spec.rOver, fixed},
		},
		bisectSteps: steps, bisectReqs: bisect,
		lo: spec.bisectLo, hi: spec.bisectHi, slo: spec.slo, maxFail: spec.maxFail,
	}
}

// next returns the step to run now, or false when the schedule is done.
func (s *serveSchedule) next() (serveStep, bool) {
	i := len(s.outcomes)
	switch {
	case i < len(s.fixed):
		return s.fixed[i], true
	case i < len(s.fixed)+s.bisectSteps:
		return serveStep{fmt.Sprintf("bisect%d", i-len(s.fixed)), (s.lo + s.hi) / 2, s.bisectReqs}, true
	}
	return serveStep{}, false
}

// record files the outcome of the step next returned and narrows the
// bisection bracket: a rate passes when p99 meets the SLO and at most
// maxFail of the offered requests were shed or timed out.
func (s *serveSchedule) record(out *stepOutcome) {
	s.outcomes = append(s.outcomes, out)
	switch i := len(s.outcomes); {
	case i == len(s.fixed):
		s.low, s.knee, s.over = s.outcomes[0], s.outcomes[1], s.outcomes[2]
	case i > len(s.fixed):
		if out.res.P99 <= s.slo && out.failFrac() <= s.maxFail {
			s.lo = out.step.rate
		} else {
			s.hi = out.step.rate
		}
	}
}

func (s *serveSchedule) offered() int {
	n := 0
	for _, o := range s.outcomes {
		n += o.res.Offered
	}
	return n
}

// checkAccounting verifies offered == served + shed + timed_out per step.
func (s *serveSchedule) checkAccounting(c *checks) {
	ok := true
	for _, o := range s.outcomes {
		r := o.res
		ok = ok && r.Offered == o.step.requests && r.Offered == r.Served+r.Shed+r.TimedOut
	}
	c.add("offered == served + shed + timed_out on every step", ok, "")
}

// runServe is the untraced serving run.
func runServe(spec serveSpec, o runOpts) (*result, error) {
	res := newResult()
	run, setups, err := setUpRepeatedly(&res.checks, o.setUps(), "latencies, counts",
		func() (*serveRun, *serve.Result, error) {
			ds, err := dataset.Generate(seededSpec(dataset.OgbnProducts, spec.scale, o.seed, o.toy))
			if err != nil {
				return nil, nil, err
			}
			run, err := buildServer(spec, ds, o.seed, nil)
			if err != nil {
				return nil, nil, err
			}
			if err := run.warmUp(); err != nil {
				return nil, nil, err
			}
			return run, run.warm, nil
		}, sameServe)
	if err != nil {
		return nil, err
	}

	sched := newSchedule(spec, o.seconds, 1, o.toy)
	// Start from a collected heap, so peak RSS and the allocation counters
	// measure the timed steps and not set-up garbage.
	box := newBoxSpeed(len(sched.fixed) + sched.bisectSteps)
	runtime.GC()
	meter := startAllocs()
	for st, ok := sched.next(); ok; st, ok = sched.next() {
		out, err := run.step(st)
		if err != nil {
			return nil, err
		}
		box.sample()
		out.allocs, out.kib = meter.lap()
		out.res.Trace = nil
		sched.record(out)
	}
	sched.checkAccounting(&res.checks)

	var hostPerOp, allocsPerOp, kibPerOp []float64
	for _, out := range sched.outcomes {
		hostPerOp = append(hostPerOp, out.hostMsPerOp())
		allocsPerOp = append(allocsPerOp, out.allocs/out.kops())
		kibPerOp = append(kibPerOp, out.kib/out.kops())
	}
	ops := float64(sched.offered()) / 1e3
	knee := sched.knee.res
	// Failures are counted where none is expected: below the knee. The
	// overload step sheds by design; its cost shows in virt_goodput_krps.
	res.attempted = sched.low.res.Offered + knee.Offered
	res.failed = sched.low.res.Shed + sched.low.res.TimedOut + knee.Shed + knee.TimedOut
	res.set("setup_s", median(setups))
	res.set("peak_rss_mb", peakRSSMiB())
	res.set("host_ms_per_op", median(hostPerOp)/box.slowdown())
	res.set("host_allocs_per_op", median(allocsPerOp))
	res.set("host_kb_per_op", median(kibPerOp))
	res.set("virt_epoch_ms", knee.Duration*1e3)
	res.set("virt_p50_ms", knee.P50*1e3)
	res.set("virt_p99_ms", knee.P99*1e3)
	res.set("virt_max_rate_krps", sched.lo/1e3)
	res.set("virt_goodput_krps", sched.over.res.Goodput/1e3)
	res.env = map[string]any{
		"ops": ops, "requests_per_fixed_step": sched.fixed[0].requests,
		"requests_per_bisect_step": sched.bisectReqs, "bisect_steps": sched.bisectSteps,
		"setups": o.setUps(), "host_samples": len(hostPerOp),
		"host_ms_per_op_raw": median(hostPerOp), "box_slowdown": box.slowdown(),
		"generator_lateness_s": 0.0, // arrivals are drawn in virtual time: never late
		"fail_frac_fixed_steps": ratio(
			float64(sched.low.res.Shed+sched.low.res.TimedOut+knee.Shed+knee.TimedOut+sched.over.res.Shed+sched.over.res.TimedOut),
			float64(sched.low.res.Offered+knee.Offered+sched.over.res.Offered)),
	}
	return res, nil
}

// p9999 is the nearest-rank 99.99th percentile latency of the served
// requests of a trace, in virtual seconds.
func p9999(trace []*serve.Request) float64 {
	var lat []float64
	for _, q := range trace {
		if q.Outcome == serve.OutcomeServed {
			lat = append(lat, q.Latency())
		}
	}
	return percentile(lat, 0.9999)
}

// busyFracs averages the replicas' compute- and copy-stream busy shares.
func busyFracs(r *serve.Result) (compute, copyStream float64) {
	if r.Duration == 0 || len(r.PerReplica) == 0 {
		return 0, 0
	}
	for _, st := range r.PerReplica {
		compute += st.BusySeconds
		copyStream += st.CopyBusySeconds
	}
	n := float64(len(r.PerReplica)) * r.Duration
	return math.Min(compute/n, 1), math.Min(copyStream/n, 1)
}
