package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runReport is one subprocess run as the set runner keeps it.
type runReport struct {
	Result resultLine `json:"result"`
	Detail detailLine `json:"detail"`
}

// setReport is everything one set of runs produced: the untraced and the
// traced run of every workload, plus the environment they ran in.
type setReport struct {
	Env      map[string]any        `json:"env"`
	EndToEnd map[string]*runReport `json:"end_to_end"` // by workload
	PerLayer map[string]*runReport `json:"per_layer"`
}

// runChild runs one workload in a subprocess of this binary — so RSS and
// allocation counters start clean — and parses its last two lines.
func runChild(exe string, o runOpts, workload string, trace bool) (*runReport, error) {
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[trace],
		"--out", o.outDir,
	}
	if o.toy {
		args = append(args, "--toy")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s trace=%v: %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
		return nil, fmt.Errorf("%s trace=%v: no result in output", workload, trace)
	}
	rep := &runReport{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep.Result); err != nil {
		return nil, fmt.Errorf("%s trace=%v: result line: %w", workload, trace, err)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &rep.Detail); err != nil {
		return nil, fmt.Errorf("%s trace=%v: detail line: %w", workload, trace, err)
	}
	return rep, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// oneSet runs every workload untraced, then traced.
func oneSet(exe string, o runOpts) (*setReport, error) {
	start := time.Now()
	rep := &setReport{EndToEnd: map[string]*runReport{}, PerLayer: map[string]*runReport{}}
	ops := map[string]any{}
	walls := map[string]any{}
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "running %s trace=%v ...\n", w.Name, trace)
			r, err := runChild(exe, o, w.Name, trace)
			if err != nil {
				return nil, err
			}
			if trace {
				rep.PerLayer[w.Name] = r
				walls[w.Name+"/traced"] = r.Detail.WallSec
			} else {
				rep.EndToEnd[w.Name] = r
				ops[w.Name] = r.Detail.Env["ops"]
				walls[w.Name] = r.Detail.WallSec
			}
		}
	}
	procs := configureRuntime()
	rep.Env = map[string]any{
		"git_commit": gitCommit(), "go_version": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": procs, "tensor_workers": procs, "real_workers": 1, "sim_parallel": true,
		"seed": o.seed, "seconds": o.seconds, "setups_per_run": o.setUps(), "toy": o.toy,
		"ops": ops, "wall_s": walls, "total_wall_s": time.Since(start).Seconds(),
		// Arrivals of the open-loop workload are drawn in virtual time, so
		// the generator cannot fall behind.
		"generator_lateness_s": 0.0,
	}
	return rep, nil
}

// printTable prints one metric table: a row per metric, a column per
// workload.
func printTable(title string, defs []metricDef, runs map[string]*runReport) {
	fmt.Printf("\n%s\n%-38s %-8s", title, "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %17s", w.Name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-38s %-8s", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Printf(" %17.6g", runs[w.Name].Result.Metrics[d.Name].Value)
		}
		fmt.Println()
	}
}

// printSet prints both tables, the op counts, every failed check and the
// environment; it returns whether every run was correct.
func printSet(rep *setReport) bool {
	printTable("End-to-end metrics (untraced run)", endToEnd, rep.EndToEnd)
	fmt.Printf("%-38s %-8s", "ops_attempted", "count")
	for _, w := range workloads {
		fmt.Printf(" %17d", rep.EndToEnd[w.Name].Result.Attempted)
	}
	fmt.Printf("\n%-38s %-8s", "ops_failed", "count")
	for _, w := range workloads {
		fmt.Printf(" %17d", rep.EndToEnd[w.Name].Result.Failed)
	}
	fmt.Printf("\n%-38s %-8s", "fail_frac", "ratio")
	for _, w := range workloads {
		r := rep.EndToEnd[w.Name].Result
		fmt.Printf(" %17.6g", ratio(float64(r.Failed), float64(r.Attempted)))
	}
	fmt.Println()
	printTable("Per-layer metrics (traced run)", perLayer, rep.PerLayer)

	ok := true
	fmt.Println("\nChecks")
	for _, runs := range []map[string]*runReport{rep.EndToEnd, rep.PerLayer} {
		for _, w := range workloads {
			r := runs[w.Name]
			passed := 0
			for _, c := range r.Detail.Checks {
				if c.OK {
					passed++
					continue
				}
				ok = false
				fmt.Printf("  FAIL %s trace=%v: %s %s\n", w.Name, r.Detail.Trace, c.Name, c.Detail)
			}
			if !r.Result.Correct {
				ok = false
			}
			fmt.Printf("  %s trace=%v: %d/%d checks passed\n", w.Name, r.Detail.Trace, passed, len(r.Detail.Checks))
		}
	}
	env, _ := json.MarshalIndent(rep.Env, "", "  ")
	fmt.Printf("\nEnvironment\n%s\n", env)
	return ok
}

// spread is how far two runs of one metric on one workload lie apart.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Rel      float64 `json:"rel"` // |a − b| ÷ max(|a|, |b|)
	Allowed  float64 `json:"allowed"`
	OK       bool    `json:"ok"`
}

// compareSets compares the untraced runs of set b with those of set a —
// same seed, same op counts — workload by workload, prints every metric
// and returns the spreads with the verdict: virtual metrics and op counts
// must agree exactly, host metrics within their repeat tolerance (set-up
// time also passes within 0.25 s). With oneSided, b is another commit's
// set and a metric that moved in its better direction passes.
func compareSets(a, b *setReport, oneSided bool) ([]spread, bool) {
	var out []spread
	ok := true
	for _, w := range workloads {
		ra, rb := a.EndToEnd[w.Name].Result, b.EndToEnd[w.Name].Result
		if ra.Attempted != rb.Attempted || ra.Failed != rb.Failed {
			ok = false
			fmt.Printf("  FAIL %-18s ops %d/%d failed against %d/%d\n", w.Name, rb.Failed, rb.Attempted, ra.Failed, ra.Attempted)
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			s := spread{w.Name, d.Name, va, vb, relDiff(va, vb), d.Repeat, false}
			better := oneSided && (vb < va) == (d.Better == lower)
			s.OK = better || s.Rel <= math.Max(d.Repeat, 1e-9) || (d.Name == "setup_s" && math.Abs(va-vb) <= 0.25)
			ok = ok && s.OK
			out = append(out, s)
			fmt.Printf("  %-4s %-18s %-20s %14.6g %14.6g  rel %.3g (allowed %.3g)\n",
				map[bool]string{true: "ok", false: "FAIL"}[s.OK], s.Workload, s.Metric, s.A, s.B, s.Rel, s.Allowed)
		}
	}
	return out, ok
}

// loadSet reads the set of an earlier report (report_seed<N>.json or
// BASELINE.json) and refuses one that ran other inputs than o asks for.
func loadSet(path string, o runOpts) (*setReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Set *setReport `json:"set"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Set == nil || len(rep.Set.EndToEnd) != len(workloads) {
		return nil, fmt.Errorf("%s: no full set under \"set\"", path)
	}
	env := rep.Set.Env
	if env["seed"] != float64(o.seed) || env["seconds"] != o.seconds || env["toy"] != o.toy {
		return nil, fmt.Errorf("%s: ran seed %v for %v s (toy %v), not seed %d for %g s (toy %v)",
			path, env["seed"], env["seconds"], env["toy"], o.seed, o.seconds, o.toy)
	}
	return rep.Set, nil
}

// seedSpread is one end-to-end metric of one workload over several seeds.
type seedSpread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	IQRFrac  float64   `json:"iqr_frac"` // (Q3 − Q1) ÷ median
	Bound    float64   `json:"bound"`
	OK       bool      `json:"ok"` // within the bound (setup_s is exempt)
}

// runSpread is the pipeline's acceptance test run locally: every workload
// (or only --workload) untraced on seeds 1..n, and per metric the
// interquartile range as a share of the median, which must stay within the
// metric's bound.
func runSpread(o runOpts, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var out []seedSpread
	ok := true
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.Name {
			continue
		}
		values := map[string][]float64{}
		for seed := int64(1); seed <= int64(n); seed++ {
			fmt.Fprintf(os.Stderr, "running %s seed %d ...\n", w.Name, seed)
			so := o
			so.seed = seed
			r, err := runChild(exe, so, w.Name, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !r.Result.Correct || r.Result.Failed != 0 {
				ok = false
				fmt.Printf("  FAIL %s seed %d: correct=%v failed=%d\n", w.Name, seed, r.Result.Correct, r.Result.Failed)
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], r.Result.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			q1, q3 := quartiles(values[d.Name])
			s := seedSpread{Workload: w.Name, Metric: d.Name, Values: values[d.Name], Median: median(values[d.Name]), Bound: d.Bound}
			s.IQRFrac = ratio(q3-q1, s.Median)
			s.OK = s.IQRFrac <= d.Bound || d.Name == "setup_s"
			ok = ok && s.OK
			out = append(out, s)
			fmt.Printf("  %-18s %-20s median %14.6g  iqr/median %.4f  bound %.2f  %v\n",
				s.Workload, s.Metric, s.Median, s.IQRFrac, s.Bound, map[bool]string{true: "ok", false: "FAIL"}[s.OK])
		}
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spread_%dseeds.json", n))
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("spreads written to %s\n", path)
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runSet runs the whole benchmark and returns the process exit code. With
// against it then compares the set with an earlier report's, same seed —
// the between-commits test that holds virtual time exactly; under selfcheck
// it runs a second set and compares the two.
func runSet(o runOpts, selfcheck bool, against string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var base *setReport
	if against != "" {
		if base, err = loadSet(against, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	first, err := oneSet(exe, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ok := printSet(first)
	report := map[string]any{"claim": nil, "set": first}
	if base != nil {
		fmt.Printf("\nAgainst %s (a) on the same seed: worse than its repeat tolerance fails\n", against)
		spreads, same := compareSets(base, first, true)
		ok = ok && same
		report["against"] = against
		report["against_spreads"] = spreads
	}
	if selfcheck {
		second, err := oneSet(exe, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		ok = printSet(second) && ok
		fmt.Println("\nSelfcheck: two sets of the same code, same seed")
		spreads, same := compareSets(first, second, false)
		ok = ok && same
		report["second_set"] = second
		report["repeat_spreads"] = spreads
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("report_seed%d.json", o.seed))
	if err := writeJSON(path, report); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nreport written to %s\n", path)
	if !ok {
		fmt.Println("FAILED")
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}
