// Package bench implements the paper's evaluation: one runner per table and
// figure of §IV, each reproducing the corresponding workload on the
// simulated DGX-A100 and printing the same rows/series the paper reports.
//
// Graphs run at a configurable scale factor (papers100M does not fit in
// host memory at full size) and, in Quick mode, with reduced model sizes so
// the pure-Go training math stays tractable; EXPERIMENTS.md records the
// exact substitutions next to the paper-vs-measured comparison. The
// *shapes* — which system wins, by roughly what factor, where curves
// plateau — are the reproduction target, not absolute seconds.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"wholegraph/internal/dataset"
	"wholegraph/internal/train"
)

// Config controls an experiment run. It defines no training knob of its own:
// Train is a train.Options — the one definition of every knob, its flag and
// its JSON key — that every trainer an experiment builds starts from, so a
// new train.Options field reaches the harness, wgbench's flags and the -json
// report without an edit here.
type Config struct {
	// Scale multiplies every dataset's node and edge counts (default 1e-3).
	Scale float64 `json:"scale"`
	// Quick shrinks model sizes and iteration counts for CI-speed runs.
	Quick bool `json:"quick"`
	// Epochs for accuracy experiments (0 = default: 24 full / 8 quick).
	Epochs int `json:"epochs"`
	// Seed fixes all randomness.
	Seed int64 `json:"seed"`
	// Parallel fans independent experiment cells (dataset x model x
	// framework groups) across goroutines. Reported virtual times and
	// printed rows are identical either way: cells share only read-only
	// state, and rows are printed in order after all cells finish.
	Parallel bool `json:"parallel"`
	// Train is the template of every trainer's options: trainOpts and
	// accuracyOpts copy it and set only what the experiment fixes (model,
	// batch shape, seed), so its execution and storage knobs — Pipeline,
	// PagedFeatures, ... — apply to every WholeGraph trainer.
	// Model math and accuracy are bit-identical under all of them (raw
	// feature encoding); virtual times and hit rates move.
	Train train.Options `json:"train"`
	// Totals, when set, receives every finished trainer's counters.
	Totals *Totals `json:"totals,omitempty"`
	// W receives the human-readable report (nil = io.Discard).
	W io.Writer `json:"-"`
}

func (c Config) normalize() Config {
	if c.Scale == 0 {
		c.Scale = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Epochs == 0 {
		if c.Quick {
			c.Epochs = 8
		} else {
			c.Epochs = 24
		}
	}
	if c.W == nil {
		c.W = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.W, format, args...)
}

// trainOpts returns the training options for the timing experiments. Paper
// parameters (batch 512, fanout 30/30/30, hidden 256) are reported next to
// the substituted values.
func (c Config) trainOpts(arch string) train.Options {
	o := c.Train
	o.Arch, o.Heads, o.Dropout, o.LR, o.Seed = arch, 4, 0.5, 0.003, c.Seed
	if c.Quick {
		o.Batch = 64
		o.Fanouts = []int{5, 5, 5}
		o.Hidden = 32
		o.MaxItersPerEpoch = 2
	} else {
		o.Batch = 128
		o.Fanouts = []int{10, 10, 10}
		o.Hidden = 64
		o.MaxItersPerEpoch = 4
	}
	return o
}

// accuracyOpts returns smaller options for the convergence experiments
// (full epochs, many of them).
func (c Config) accuracyOpts(arch string) train.Options {
	o := c.Train
	o.Arch, o.Heads, o.Dropout, o.LR, o.Seed = arch, 2, 0.3, 0.01, c.Seed
	if c.Quick {
		o.Batch = 64
		o.Fanouts = []int{4, 4}
		o.Hidden = 16
	} else {
		o.Batch = 128
		o.Fanouts = []int{5, 5}
		o.Hidden = 32
	}
	return o
}

// datasets returns the four evaluation graphs at the configured scale, in
// paper order.
func (c Config) datasets() []dataset.Spec {
	var out []dataset.Spec
	for _, s := range dataset.All() {
		out = append(out, s.Scaled(c.Scale))
	}
	return out
}

// generate memoizes dataset generation within one harness process. The
// cache is shared by concurrently running experiment cells, hence the lock;
// generated datasets themselves are read-only.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*dataset.Dataset{}
)

func generate(spec dataset.Spec) (*dataset.Dataset, error) {
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[spec.Name]; ok {
		return ds, nil
	}
	ds, err := dataset.Generate(spec)
	if err != nil {
		return nil, err
	}
	dsCache[spec.Name] = ds
	return ds, nil
}

// runCells executes n independent experiment cells, concurrently when
// cfg.Parallel is set. Cells must confine writes to their own result slot
// and not touch cfg.W (printing happens after the join, in cell order, so
// reports are byte-identical to a serial run), and fold their trainers into
// the Totals they are handed: one per cell, added to cfg.Totals after the
// join in cell order, so the float sums do not depend on which cell finished
// first. The lowest-indexed cell error is returned, matching what a serial
// run would have hit first.
//
// In-flight cells are capped at GOMAXPROCS: each cell holds a whole
// simulated machine (up to 64 devices for the multi-node experiments)
// live, so unbounded fan-out inflates the heap and turns into GC time
// instead of speedup once cells outnumber cores.
func (c Config) runCells(n int, fn func(cell int, tot *Totals) error) error {
	tots := make([]Totals, n)
	defer func() {
		for i := range tots {
			c.Totals.add(&tots[i])
		}
	}()
	if !c.Parallel || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i, &tots[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i, &tots[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Framework identifies a training pipeline in reports.
type Framework string

// The compared pipelines.
const (
	FwPyG        Framework = "PyG"
	FwDGL        Framework = "DGL"
	FwWholeGraph Framework = "WholeGraph"
)

// fmtSeconds renders a virtual duration compactly.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f us", s*1e6)
	}
}

// evalSet returns a fixed random node sample with ground-truth labels for
// accuracy evaluation. The scaled datasets have too few held-out labeled
// nodes for a low-variance estimate (papers100M at 1/1000 has ~120 val
// nodes), but the synthetic generator knows every node's true class, so
// the harness evaluates on a larger sample — a luxury the real datasets do
// not offer, noted in EXPERIMENTS.md.
func evalSet(cfg Config, ds *dataset.Dataset, salt int64) ([]int64, []int32) {
	n := 2048
	if cfg.Quick {
		n = 512
	}
	n = int(min(int64(n), ds.Spec.Nodes))
	rng := cfg.seededRand(salt)
	ids := make([]int64, 0, n)
	labels := make([]int32, 0, n)
	seen := make(map[int64]bool, n)
	for len(ids) < n {
		v := rng.Int63n(ds.Spec.Nodes)
		if seen[v] {
			continue // target nodes of a batch must be distinct
		}
		seen[v] = true
		ids = append(ids, v)
		labels = append(labels, ds.Spec.Class(v))
	}
	return ids, labels
}

// seededRand builds a deterministic RNG namespaced by the experiment.
func (c Config) seededRand(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1000003 + salt))
}
