package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricTables checks the tables against the pipeline's schema limits.
func TestMetricTables(t *testing.T) {
	if len(workloads) != 4 {
		t.Errorf("want 4 workloads, have %d", len(workloads))
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("metric counts out of range: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: bad unit %q or direction %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error(`end-to-end metrics must include setup_s in "s", lower is better`)
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound != 0 {
			t.Errorf("%s: bad unit %q, direction %q or a bound on a layer metric", d.Name, d.Unit, d.Better)
		}
	}
}

// TestManifestInSync fails when the committed BENCHMARK.json and the metric
// tables drift apart (regenerate it with --manifest).
func TestManifestInSync(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var have, want any
	if err := json.Unmarshal(buf, &have); err != nil {
		t.Fatal(err)
	}
	cur, _ := json.Marshal(currentManifest())
	if err := json.Unmarshal(cur, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with --manifest")
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, in this
// process and validates what would be the result line: it keeps the
// harness compiling and running against internal/* as later changes
// delete options.
func TestSmoke(t *testing.T) {
	configureRuntime()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: w.Name, seed: 1, seconds: runSeconds, trace: trace, toy: true, outDir: t.TempDir()}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := metricDefs(trace)
			line := res.line(defs)
			for _, c := range res.checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check failed: %s %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing, mis-united or not finite: %+v", w.Name, trace, d.Name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s must be positive, is %g", w.Name, d.Name, m.Value)
				}
			}
			if buf, err := json.Marshal(line); err != nil || !json.Valid(buf) {
				t.Errorf("%s trace=%v: result line does not marshal: %v", w.Name, trace, err)
			}
			if trace {
				if _, err := os.Stat(res.env["trace_file"].(string)); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestRecorder pins the span arithmetic: nesting, self time, and the
// defects validate must report.
func TestRecorder(t *testing.T) {
	r := newRecorder()
	iter := r.begin("iter", 0, 1.0)
	a := r.begin("a", 0, 1.0)
	r.end(a, 1.5)
	b := r.begin("b", 0, 1.5)
	r.end(b, 3.0)
	r.end(iter, 3.0)
	if err := r.validate(); err != nil {
		t.Fatal(err)
	}
	tot := r.totals()
	it := tot["iter"]
	if it.Calls != 1 || it.VirtSec != 2.0 || it.SelfVirt != 0 {
		t.Errorf("iter totals %+v: want 1 call, 2 s virtual, 0 s virtual self time", it)
	}
	if got := tot["a"].HostNs + tot["b"].HostNs + it.SelfNs; got != it.HostNs {
		t.Errorf("children %g + self != span %g", got, it.HostNs)
	}
	if r.spans[a-1].Parent != iter || r.spans[iter-1].Parent != 0 {
		t.Error("parents not recorded")
	}

	open := newRecorder()
	open.begin("left-open", 0, 0)
	if open.validate() == nil {
		t.Error("validate accepted an unclosed span")
	}
	bad := newRecorder()
	p := bad.begin("p", 0, 0)
	c := bad.begin("c", 0, 0)
	bad.end(c, 0)
	bad.end(p, 0)
	bad.spans[c-1].EndNs = bad.spans[p-1].EndNs + 10 // child outlives its parent
	if bad.validate() == nil {
		t.Error("validate accepted a child outside its parent")
	}

	var none *recorder
	none.end(none.begin("ignored", 0, 0), 0) // a nil recorder records nothing
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

// TestCompareSets pins the same-seed comparison: virtual time must agree
// exactly, host time within its tolerance, and against another commit's set
// only the worse direction fails.
func TestCompareSets(t *testing.T) {
	set := func(virt, rate, host float64) *setReport {
		rep := &setReport{EndToEnd: map[string]*runReport{}}
		for _, w := range workloads {
			line := resultLine{Attempted: 10, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				line.Metrics[d.Name] = metricValue{1, d.Unit}
			}
			line.Metrics["virt_epoch_ms"] = metricValue{virt, "ms"}
			line.Metrics["virt_max_rate_krps"] = metricValue{rate, "k/s"}
			line.Metrics["host_ms_per_op"] = metricValue{host, "ms"}
			rep.EndToEnd[w.Name] = &runReport{Result: line}
		}
		return rep
	}
	base := set(2, 100, 10)
	for _, c := range []struct {
		name     string
		b        *setReport
		oneSided bool
		want     bool
	}{
		{"identical", set(2, 100, 10), false, true},
		{"host time within tolerance", set(2, 100, 11), false, true},
		{"host time beyond tolerance", set(2, 100, 15), false, false},
		{"virtual time 0.1 % worse", set(2.002, 100, 10), true, false},
		{"virtual time better, other commit", set(1.9, 101, 10), true, true},
		{"virtual time better, same code", set(1.9, 100, 10), false, false},
		{"rate lower, other commit", set(2, 99, 10), true, false},
	} {
		if _, ok := compareSets(base, c.b, c.oneSided); ok != c.want {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.want)
		}
	}
}
