package bench

import (
	"runtime"
	"strconv"
	"strings"
	"time"

	"wholegraph/internal/baseline"
	"wholegraph/internal/blockcache"
	"wholegraph/internal/core"
	"wholegraph/internal/dataset"
	"wholegraph/internal/sim"
	"wholegraph/internal/train"
)

// cell is one trainer of an experiment: a framework training a dataset on a
// fresh machine with the given options, warm-up epochs first and measured
// epochs after. An ablation is a base cell and copies of it with options
// edited.
type cell struct {
	fw   Framework
	ds   *dataset.Dataset
	hw   sim.MachineConfig // zero: one DGX-A100 node
	opts train.Options
	// warm-up epochs run first, then the measured ones (0 means 1).
	warm, epochs int
	// store, when set, builds the WholeGraph store the cell trains over, for
	// a store train.Options cannot describe.
	store func(m *sim.Machine) (*core.Store, error)
	// after, when set, runs after every epoch, warm-up included, before the
	// trainer is folded into the run totals.
	after func(tr *train.Trainer, epoch int) error
	// timed measures each measured epoch's host time and allocations.
	timed bool
}

// cellRun is what running a cell gives.
type cellRun struct {
	stats  []train.EpochStats // the measured epochs
	losses []float64          // every epoch's loss, warm-up included
	tot    Totals             // the trainer's counters, as folded
	feat   blockcache.Stats
	topo   blockcache.Stats
	// With cell.timed: the least host ns per iteration over the measured
	// epochs, and their heap allocations and iterations.
	nsIter  float64
	mallocs uint64
	iters   int
}

// mean returns the measured epochs' mean virtual epoch time.
func (r cellRun) mean() float64 {
	var t float64
	for _, st := range r.stats {
		t += st.EpochTime / float64(len(r.stats))
	}
	return t
}

// last returns the last measured epoch.
func (r cellRun) last() train.EpochStats { return r.stats[len(r.stats)-1] }

// speedup is an ablation's speedup column: base's mean epoch over alt's.
func speedup(base, alt cellRun) float64 { return base.mean() / alt.mean() }

// lossColumn is an ablation's loss column: whether every epoch's loss matched
// bit for bit between the two sides.
func lossColumn(match bool) string {
	if match {
		return "match"
	}
	return "DRIFT"
}

// total returns the cell's epoch count, warm-up included.
func (c cell) total() int { return c.warm + max(c.epochs, 1) }

// trainer builds the cell's trainer and resets the machine, so the cell
// measures training, not store setup.
func (c cell) trainer() (*train.Trainer, error) {
	if c.hw.Nodes == 0 {
		c.hw = sim.DGXA100(1)
	}
	m := sim.NewMachine(c.hw)
	var tr *train.Trainer
	var err error
	switch {
	case c.store != nil:
		var s *core.Store
		if s, err = c.store(m); err == nil {
			tr, err = newStoreTrainer(m, s, c.opts)
		}
	case c.fw == FwPyG:
		tr, err = baseline.New(m, c.ds, c.opts, baseline.PyG)
	case c.fw == FwDGL:
		tr, err = baseline.New(m, c.ds, c.opts, baseline.DGL)
	default:
		tr, err = train.New(m, c.ds, c.opts)
	}
	if err != nil {
		return nil, err
	}
	m.Reset()
	return tr, nil
}

// epoch runs the cell's epoch e on tr and records it in r.
func (c cell) epoch(tr *train.Trainer, e int, r *cellRun) error {
	measured := e >= c.warm
	var ms0, ms1 runtime.MemStats
	var t0 time.Time
	if measured && c.timed {
		runtime.GC() // don't bill this window for another window's garbage
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
	}
	st := tr.RunEpoch()
	if measured && c.timed {
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		iters := tr.ItersPerEpoch()
		r.iters += iters
		r.mallocs += ms1.Mallocs - ms0.Mallocs
		if ns := float64(wall.Nanoseconds()) / float64(iters); r.nsIter == 0 || ns < r.nsIter {
			r.nsIter = ns
		}
	}
	r.losses = append(r.losses, st.Loss)
	if measured {
		r.stats = append(r.stats, st)
	}
	if c.after != nil {
		return c.after(tr, e)
	}
	return nil
}

// runGroups runs cells in groups of size consecutive cells, each group one of
// runCells' cells. A group builds its trainers, runs their epochs in
// lockstep — epoch e of every cell before epoch e+1 of any, so a burst of
// host load hits every side of a comparison alike — and folds them into the
// group's Totals in cell order, which runCells adds up in group order.
func (c Config) runGroups(cells []cell, size int) ([]cellRun, error) {
	runs := make([]cellRun, len(cells))
	err := c.runCells(len(cells)/size, func(g int, tot *Totals) error {
		group, out := cells[g*size:(g+1)*size], runs[g*size:(g+1)*size]
		trs := make([]*train.Trainer, size)
		for i, cl := range group {
			var err error
			if trs[i], err = cl.trainer(); err != nil {
				return err
			}
		}
		epochs := 0
		for _, cl := range group {
			epochs = max(epochs, cl.total())
		}
		for e := 0; e < epochs; e++ {
			for i, cl := range group {
				if e >= cl.total() {
					continue
				}
				if err := cl.epoch(trs[i], e, &out[i]); err != nil {
					return err
				}
			}
		}
		for i, tr := range trs {
			out[i].tot.Fold(tr)
			tot.add(&out[i].tot)
			out[i].feat, out[i].topo = tr.FeatStoreStats(), tr.TopoStoreStats()
		}
		return nil
	})
	return runs, err
}

// newTrainer builds the trainer for a framework on a fresh machine of nodes
// DGX-A100 nodes, its setup reset away. The caller folds it into its Config's Totals
// when it is done with it.
func newTrainer(fw Framework, nodes int, ds *dataset.Dataset, opts train.Options) (*train.Trainer, error) {
	return cell{fw: fw, ds: ds, hw: sim.DGXA100(nodes), opts: opts}.trainer()
}

// newStoreTrainer builds a WholeGraph trainer over an existing store.
func newStoreTrainer(m *sim.Machine, store *core.Store, opts train.Options) (*train.Trainer, error) {
	opts = opts.Normalize()
	tr, err := train.NewCustom(m, store.DS, opts, func(w int, dev *sim.Device) train.BatchLoader {
		return core.NewLoader(store, dev, opts.Fanouts, opts.Seed+int64(w))
	})
	if err != nil {
		return nil, err
	}
	tr.Stores = []*core.Store{store}
	return tr, nil
}

// flatStore builds ds's flat store on a fresh one-node DGX-A100 and resets
// the machine, so what follows measures use, not setup.
func flatStore(ds *dataset.Dataset) (*core.Store, error) {
	m := sim.NewMachine(sim.DGXA100(1))
	s, err := core.NewStore(m, 0, ds)
	if err != nil {
		return nil, err
	}
	m.Reset()
	return s, nil
}

// firstTrain returns the first n training nodes of ds, or all of them when it
// has fewer.
func firstTrain(ds *dataset.Dataset, n int) []int64 { return ds.Train[:min(n, len(ds.Train))] }

// scaleFloor returns the scale an experiment runs at: cfg.Scale, or floor
// when the request is below it, saying so rather than silently running a
// different experiment than asked.
func (c Config) scaleFloor(floor float64) float64 {
	if c.Scale >= floor {
		return c.Scale
	}
	f := strings.Replace(strconv.FormatFloat(floor, 'e', -1, 64), "e-0", "e-", 1)
	c.printf("note: requested scale %g is below the %s floor for this experiment; running at %s\n", c.Scale, f, f)
	return floor
}
