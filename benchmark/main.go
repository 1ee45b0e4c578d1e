// Command benchmark is the repository's one benchmark: four workloads,
// each reported in both clocks — virtual time (what the cost model says a
// DGX would take) and host cost (what running the simulator costs) — plus
// a traced run that breaks the same work down layer by layer. It measures
// strictly from outside: by timing calls into each layer's public
// functions. See README.md for the workloads, metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"wholegraph/internal/sim"
	"wholegraph/internal/tensor"
)

// procStart approximates process start: set-up time counts from here.
var procStart = time.Now()

// runOpts are the knobs of one workload run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool // smoke-test sizes: tiny dataset, two epochs, one set-up
	outDir   string
}

// setUps is how many times an untraced run sets up; setup_s is the median.
func (o runOpts) setUps() int {
	if o.toy {
		return 1
	}
	return 3
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type checks []check

func (c *checks) add(name string, ok bool, detail string) {
	*c = append(*c, check{name, ok, detail})
}

func (c checks) allOK() bool {
	for _, k := range c {
		if !k.OK {
			return false
		}
	}
	return true
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	checks            checks
	env               map[string]any
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// setUpRepeatedly builds a workload's stack n times and returns the last
// one with every set-up's host seconds (the first counts from process
// start). build also returns the stack's warm-up statistics; every repeat
// must reproduce the first's — same seed, same inputs — which is the run's
// determinism check. The previous stack is dropped and collected before the
// next is built, so peak RSS reflects one live stack.
func setUpRepeatedly[S, W any](c *checks, n int, what string,
	build func() (S, W, error), same func(first, again W) bool) (S, []float64, error) {
	var stack, none S
	var first W
	var seconds []float64
	t0 := procStart
	for rep := 0; rep < n; rep++ {
		if rep > 0 {
			stack = none
			runtime.GC()
			t0 = time.Now()
		}
		var warm W
		var err error
		if stack, warm, err = build(); err != nil {
			return none, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
		if rep == 0 {
			first = warm
			continue
		}
		c.add(fmt.Sprintf("set-up %d repeats set-up 1 bit for bit (%s)", rep+1, what), same(first, warm), "")
	}
	return stack, seconds, nil
}

// metricValue is the wire form of one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detailLine precedes the result line; the set runner reads it.
type detailLine struct {
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Checks   checks         `json:"checks"`
	Env      map[string]any `json:"env"`
	WallSec  float64        `json:"wall_s"`
}

const detailPrefix = "detail "

// line renders the result against the metric table of its mode: every
// defined metric appears (0 for a layer the workload does not exercise),
// and a value that is not a finite number fails the run.
func (r *result) line(defs []metricDef) resultLine {
	known := map[string]bool{}
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		known[d.Name] = true
		v := r.metrics[d.Name]
		if !isFinite(v) {
			r.checks.add("metric "+d.Name+" is finite", false, fmt.Sprint(v))
			v = 0
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range r.metrics {
		if !known[name] {
			panic("benchmark: metric " + name + " is not in the metric table")
		}
	}
	out.Correct = r.checks.allOK()
	return out
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// configureRuntime fixes the load shape: at most two OS threads of Go
// code, the same number of tensor workers, goroutine-parallel devices.
func configureRuntime() int {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	tensor.SetWorkers(procs)
	sim.SetParallel(true)
	return procs
}

// runWorkload runs one workload in this process.
func runWorkload(o runOpts) (*result, error) {
	if o.workload == wServe {
		if o.trace {
			return traceServe(serveDef, o)
		}
		return runServe(serveDef, o)
	}
	spec, ok := trainSpecs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace {
		return traceTrain(spec, o)
	}
	return runTrain(spec, o)
}

// printRun writes the human-readable report, the detail line and, last,
// the result line.
func printRun(o runOpts, res *result) {
	defs := metricDefs(o.trace)
	line := res.line(defs)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, d := range defs {
		fmt.Printf("  %-38s %16.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("  %-38s %16d\n  %-38s %16d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	for _, c := range res.checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %-4s %s %s\n", status, c.Name, c.Detail)
	}
	keys := make([]string, 0, len(res.env))
	for k := range res.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  env %s = %v\n", k, res.env[k])
	}
	detail, _ := json.Marshal(detailLine{o.workload, o.trace, res.checks, res.env, time.Since(procStart).Seconds()})
	fmt.Printf("%s%s\n", detailPrefix, detail)
	buf, _ := json.Marshal(line)
	fmt.Printf("%s\n", buf)
}

func main() {
	var o runOpts
	var trace int
	var selfcheck, printManifest bool
	var spreadSeeds int
	var against string
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: the whole set, one subprocess per run)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs (2 is held out for later claims)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed section; scales op counts, never shapes")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes a Chrome trace")
	flag.BoolVar(&o.toy, "toy", false, "smoke-test sizes (tiny dataset, two epochs, one set-up)")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for traces and set reports")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the whole set twice and fail unless the two agree within each metric's same-seed tolerance")
	flag.StringVar(&against, "against", "", "after the set, compare it with the set in this earlier report (same seed and seconds); fails where a metric is worse than its same-seed tolerance")
	flag.IntVar(&spreadSeeds, "spread", 0, "run every workload untraced on seeds 1..n and check each metric's interquartile spread against its bound")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
	flag.Parse()
	wholeSetOnly := selfcheck || against != ""
	if flag.NArg() > 0 || o.seconds <= 0 || trace < 0 || trace > 1 ||
		(wholeSetOnly && (o.workload != "" || spreadSeeds > 0)) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if printManifest {
		buf, _ := json.MarshalIndent(currentManifest(), "", "  ")
		fmt.Printf("%s\n", buf)
		return
	}
	o.trace = trace == 1

	if spreadSeeds > 0 {
		os.Exit(runSpread(o, spreadSeeds))
	}
	if o.workload == "" {
		os.Exit(runSet(o, selfcheck, against))
	}
	configureRuntime()
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// A run that completed exits 0 even when a check failed: the result
	// line carries the verdict ("correct"), and the set runner turns it
	// into the exit code of the whole benchmark.
	printRun(o, res)
}
