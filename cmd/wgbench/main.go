// Command wgbench regenerates the WholeGraph paper's evaluation: every
// table (I-V) and figure (7-13) of §IV, plus the shared-memory setup
// microbenchmark, on the simulated DGX-A100.
//
// Usage:
//
//	wgbench -exp all                 # everything, default scale 1/1000
//	wgbench -exp table5 -scale 0.002 # one experiment at a custom scale
//	wgbench -exp fig8,fig10 -quick   # fast pass with reduced models
//	wgbench -exp table3 -parallel    # fan independent cells across cores
//	wgbench -exp all -json out.json  # machine-readable results
//	wgbench -exp fig9 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	wgbench -exp table5 -pipeline -cache-rows 500  # overlapped loaders + feature cache
//	wgbench -exp abl-overlap-grads -overlap-grads  # bucketed gradient/backward overlap
//
// Reported times are virtual seconds from the machine simulation; see
// EXPERIMENTS.md for the paper-vs-measured comparison and the scaling
// substitutions. -parallel changes only wall-clock time: printed rows and
// virtual seconds are identical to a serial run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wholegraph/internal/bench"
	"wholegraph/internal/dataset"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Config) (any, error)
}{
	{"table1", "UM vs GPUDirect P2P access latency", wrap(bench.Table1)},
	{"table2", "evaluation datasets", wrap(bench.Table2)},
	{"table3", "accuracy parity across frameworks", wrap(bench.Table3)},
	{"table4", "memory usage for ogbn-papers100M", wrap(bench.Table4)},
	{"table5", "epoch time and speedups", wrap(bench.Table5)},
	{"fig7", "validation accuracy curves (DGL vs WholeGraph)", wrap(bench.Fig7)},
	{"fig8", "random gather bandwidth vs segment size", wrap(bench.Fig8)},
	{"fig9", "epoch time breakdown", wrap(bench.Fig9)},
	{"fig10", "shared-memory vs NCCL-based gather", wrap(bench.Fig10)},
	{"fig11", "native vs third-party GNN layers", wrap(bench.Fig11)},
	{"fig12", "GPU utilization over time", wrap(bench.Fig12)},
	{"fig13", "multi-node scaling", wrap(bench.Fig13)},
	{"setup", "shared-memory setup cost", wrap(bench.Setup)},
	{"abl-storage", "ablation: P2P vs UM vs pinned-host feature storage", wrap(bench.AblationStorage)},
	{"abl-unique", "ablation: hash-table vs sort AppendUnique", wrap(bench.AblationUnique)},
	{"abl-dedup", "ablation: gather with vs without deduplication", wrap(bench.AblationDedup)},
	{"infer", "offline inference: sampled vs full-graph layer-wise", wrap(bench.Inference)},
	{"abl-hw", "ablation: NVSwitch vs PCIe-only fabric", wrap(bench.AblationHardware)},
	{"abl-part", "ablation: hash vs range vs community node placement", wrap(bench.AblationPartition)},
	{"abl-pipeline", "ablation: cross-iteration batch prefetch vs sequential", wrap(bench.AblationPipeline)},
	{"abl-overlap-grads", "ablation: bucketed gradient AllReduce overlapped with backward", wrap(bench.AblationOverlapGrads)},
	{"abl-graph", "ablation: step capture/replay vs eager per-kernel dispatch", wrap(bench.AblationGraph)},
	{"abl-featstore", "ablation: flat slab vs paged+encoded out-of-core feature store", wrap(bench.AblationFeatstore)},
	{"abl-oocgraph", "ablation: in-RAM CSR vs paged topology with prefetch and admission", wrap(bench.AblationOOCGraph)},
	{"featstore-full", "out-of-core papers100M: paged features and topology at full scale", wrap(bench.FeatstoreFull)},
	{"serving", "online serving: dynamic batching vs batch=1", wrap(bench.Serving)},
}

func wrap[T any](f func(bench.Config) (T, error)) func(bench.Config) (any, error) {
	return func(cfg bench.Config) (any, error) {
		return f(cfg)
	}
}

// jsonReport is the -json output: the configuration the run used — scale,
// seed, and under "train" every execution and storage knob as bound by
// train.Options.BindExecFlags — its closing totals (under "totals"), and one
// entry per executed experiment with its typed result rows (virtual seconds
// live inside them) and the host wall-clock the experiment took. The Config
// is embedded as it ran, so a new knob needs no edit here.
type jsonReport struct {
	bench.Config
	GOMAXPROCS  int              `json:"gomaxprocs"`
	StartedAt   time.Time        `json:"started_at"`
	WallSeconds float64          `json:"wall_seconds"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	Name        string  `json:"name"`
	Desc        string  `json:"desc"`
	WallSeconds float64 `json:"wall_seconds"`
	Result      any     `json:"result"`
}

func main() {
	cfg := bench.Config{Totals: &bench.Totals{}, W: os.Stdout}
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments (all, "+names()+")")
		jsonPath = flag.String("json", "", "also write machine-readable results to this path")
		list     = flag.Bool("list", false, "list experiments and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this path")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this path")
	)
	flag.Float64Var(&cfg.Scale, "scale", 1e-3, "dataset scale factor vs the paper's full-size graphs")
	flag.BoolVar(&cfg.Quick, "quick", false, "reduced model sizes and iteration counts")
	flag.IntVar(&cfg.Epochs, "epochs", 0, "epochs for accuracy experiments (0 = default)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.BoolVar(&cfg.Parallel, "parallel", false, "run independent experiment cells on parallel goroutines (identical output, less wall-clock)")
	cfg.Train.BindExecFlags(flag.CommandLine)
	flag.Parse()
	if err := dataset.CheckScale(cfg.Scale); err != nil {
		fmt.Fprintf(os.Stderr, "wgbench: -scale: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(n)] = true
	}
	report := jsonReport{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0), StartedAt: time.Now()}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wgbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "wgbench: writing heap profile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	start := time.Now()
	ran := 0
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		t0 := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		wall := time.Since(t0)
		fmt.Printf("[%s done in %v]\n\n", e.name, wall.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			Name: e.name, Desc: e.desc, WallSeconds: wall.Seconds(), Result: res,
		})
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "wgbench: no experiment matched %q (use -list)\n", *exp)
		os.Exit(2)
	}
	fmt.Print(cfg.Totals.Report())
	if *jsonPath != "" {
		report.WallSeconds = time.Since(start).Seconds()
		cfg.Totals.PeakRSSMiB = float64(bench.PeakRSSBytes()) / (1 << 20)
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: encoding -json report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "wgbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment results to %s\n", ran, *jsonPath)
	}
}

func names() string {
	var n []string
	for _, e := range experiments {
		n = append(n, e.name)
	}
	return strings.Join(n, ", ")
}
