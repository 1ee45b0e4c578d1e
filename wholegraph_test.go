package wholegraph_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"wholegraph"
)

// TestFacadeEndToEnd exercises the public API exactly as the quickstart
// example does: machine, dataset, trainer, epochs, evaluation.
func TestFacadeEndToEnd(t *testing.T) {
	machine := wholegraph.NewDGXA100(1)
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch: "graphsage", Batch: 32, Fanouts: []int{4, 4}, Hidden: 16, LR: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, last wholegraph.EpochStats
	for e := 0; e < 10; e++ {
		st := trainer.RunEpoch()
		if e == 0 {
			first = st
		}
		last = st
	}
	if last.Loss >= first.Loss {
		t.Errorf("loss did not decrease: %.3f -> %.3f", first.Loss, last.Loss)
	}
	if last.EpochTime <= 0 {
		t.Error("no virtual time measured")
	}
	if acc, err := trainer.Evaluate(ds.Val, 0); err != nil || acc <= 0 {
		t.Errorf("validation accuracy %.3f, err %v", acc, err)
	}
	if emb, err := trainer.Predict(ds.Val[:4]); err != nil || len(emb) != 4 || len(emb[0]) != ds.Spec.NumClasses {
		t.Errorf("Predict returned wrong shape (err %v)", err)
	}
}

// TestNewTrainerRejectsBadOptions: every option value that cannot describe
// a run — negative sizes and counts, a negative or NaN learning rate, a
// fanout below 1, a dropout outside [0, 1], a GAT whose heads do not divide
// its hidden size, an unknown cache policy or page encoding — is an error from NewTrainer naming the field, not a
// panic in the middle of RunEpoch, and the same error from Check, which
// needs no dataset.
func TestNewTrainerRejectsBadOptions(t *testing.T) {
	if err := (wholegraph.TrainOptions{}).Check(); err != nil {
		t.Errorf("the paper's defaults are refused: %v", err)
	}
	machine := wholegraph.NewDGXA100(1)
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want string // what the error says about the field
		opts wholegraph.TrainOptions
	}{
		{"Options.Batch ", wholegraph.TrainOptions{Batch: -1}},
		{"Options.Fanouts[0] ", wholegraph.TrainOptions{Fanouts: []int{-1, 5}}},
		{"Options.Fanouts[1] ", wholegraph.TrainOptions{Fanouts: []int{5, 0}}},
		{"Options.RealWorkers ", wholegraph.TrainOptions{RealWorkers: -1}},
		{"hidden size -4", wholegraph.TrainOptions{Hidden: -4}},
		{"Options.LR ", wholegraph.TrainOptions{LR: -1}},
		{"Options.LR ", wholegraph.TrainOptions{LR: math.NaN()}},
		{"Options.MaxItersPerEpoch ", wholegraph.TrainOptions{MaxItersPerEpoch: -3}},
		{"Options.Heads ", wholegraph.TrainOptions{Heads: -2}},
		{"Options.PrefetchPages ", wholegraph.TrainOptions{PrefetchPages: -1}},
		{"dropout probability 1.5", wholegraph.TrainOptions{Dropout: 1.5}},
		{"multiple of 3 heads", wholegraph.TrainOptions{Arch: "gat", Hidden: 32, Heads: 3}},
		{`cache policy "bogus"`, wholegraph.TrainOptions{CachePolicy: "bogus"}},
		{`encoding "bogus"`, wholegraph.TrainOptions{PagedFeatures: true, FeatEncoding: "bogus"}},
	} {
		opts := tc.opts
		if opts.Fanouts == nil {
			opts.Fanouts = []int{3, 3}
		}
		tr, err := wholegraph.NewTrainer(machine, ds, opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: NewTrainer returned trainer %v, error %v; want an error saying %q", tc.opts, tr != nil, err, tc.want)
		}
		if cerr := opts.Check(); cerr == nil || err == nil || cerr.Error() != err.Error() {
			t.Errorf("%+v: Check returned %v, NewTrainer %v", tc.opts, cerr, err)
		}
	}
}

// TestNewServerRejectsNonFiniteOptions: a rate, delay, deadline, SLO or skew
// that is NaN or infinite, or a negative SLO, is an error from NewServer
// naming the field — not a run that hangs (NaN Rate), reports negative
// latencies (NaN MaxDelay) or an infinite p99 (infinite MaxDelay).
func TestNewServerRejectsNonFiniteOptions(t *testing.T) {
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for i, tc := range []struct {
		field string
		edit  func(*wholegraph.ServeOptions)
	}{
		{"Rate", func(o *wholegraph.ServeOptions) { o.Rate = nan }},
		{"Rate", func(o *wholegraph.ServeOptions) { o.Rate = inf }},
		{"MaxDelay", func(o *wholegraph.ServeOptions) { o.MaxDelay = nan }},
		{"MaxDelay", func(o *wholegraph.ServeOptions) { o.MaxDelay = inf }},
		{"Deadline", func(o *wholegraph.ServeOptions) { o.Deadline = nan }},
		{"Deadline", func(o *wholegraph.ServeOptions) { o.Deadline = inf }},
		{"SLO", func(o *wholegraph.ServeOptions) { o.SLO = nan }},
		{"SLO", func(o *wholegraph.ServeOptions) { o.SLO = inf }},
		{"SLO", func(o *wholegraph.ServeOptions) { o.SLO = -1e-3 }},
		{"Skew", func(o *wholegraph.ServeOptions) { o.Skew = nan }},
		{"Skew", func(o *wholegraph.ServeOptions) { o.Skew = inf }},
	} {
		opts := wholegraph.ServeOptions{Requests: 200, Fanouts: []int{3, 3}}
		tc.edit(&opts)
		model := wholegraph.NewModel("graphsage", wholegraph.ModelConfig{
			InDim: ds.Spec.FeatDim, Hidden: 8, Classes: ds.Spec.NumClasses, Layers: 2,
		})
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			srv, err := wholegraph.NewServer(wholegraph.NewDGXA100(1), 0, ds, model, opts)
			if err == nil {
				_, err = srv.Run()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("case %d, bad %s: error %v; want one naming %s", i, tc.field, err, tc.field)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("case %d, bad %s: no answer in 10 s", i, tc.field)
		}
	}
}

// TestGenerateDatasetRejectsBadSpecs: a spec the generators cannot build is
// an error naming the field — not a panic (a one-node graph with edges), a
// hang (NaN ZipfS, whose Zipf draw never accepts) or a dataset built from
// NaN fractions — from the in-RAM and the out-of-core generator alike.
func TestGenerateDatasetRejectsBadSpecs(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		edit  func(*wholegraph.DatasetSpec)
	}{
		{"Nodes", func(s *wholegraph.DatasetSpec) { s.Nodes, s.Edges = 1, 4 }},
		{"ZipfS", func(s *wholegraph.DatasetSpec) { s.ZipfS = nan }},
		{"ZipfS", func(s *wholegraph.DatasetSpec) { s.ZipfS = math.Inf(1) }},
		{"LabelRatio", func(s *wholegraph.DatasetSpec) { s.LabelRatio = nan }},
		{"TrainFrac", func(s *wholegraph.DatasetSpec) { s.TrainFrac = nan }},
		{"ValFrac", func(s *wholegraph.DatasetSpec) { s.ValFrac = nan }},
		{"Homophily", func(s *wholegraph.DatasetSpec) { s.Homophily = nan }},
		{"NoiseSigma", func(s *wholegraph.DatasetSpec) { s.NoiseSigma = nan }},
		{"NoiseSigma", func(s *wholegraph.DatasetSpec) { s.NoiseSigma = -1 }},
		{"NoiseSigma", func(s *wholegraph.DatasetSpec) { s.NoiseSigma = math.Inf(1) }},
	} {
		spec := wholegraph.OgbnProducts.Scaled(1e-4)
		tc.edit(&spec)
		for _, gen := range []struct {
			name string
			f    func(wholegraph.DatasetSpec) (*wholegraph.Dataset, error)
		}{
			{"GenerateDataset", wholegraph.GenerateDataset},
			{"GenerateDatasetOutOfCore", wholegraph.GenerateDatasetOutOfCore},
		} {
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				_, err := gen.f(spec)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s with bad %s: error %v; want one naming %s", gen.name, tc.field, err, tc.field)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("%s with bad %s: no answer in 10 s", gen.name, tc.field)
			}
		}
	}
}

func TestFacadeBaselineAndOps(t *testing.T) {
	machine := wholegraph.NewDGXA100(1)
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wholegraph.NewBaselineTrainer(machine, ds, wholegraph.TrainOptions{
		Arch: "gcn", Batch: 16, Fanouts: []int{3}, Hidden: 8,
	}, wholegraph.DGL)
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.RunEpoch(); st.EpochTime <= 0 {
		t.Error("baseline epoch did not run")
	}

	// Direct op access: Algorithm 1 and the shared-memory allocator.
	res := wholegraph.SampleWithoutReplacement(5, 100, rand.New(rand.NewSource(1)))
	if len(res) != 5 {
		t.Errorf("sampled %d values", len(res))
	}
	for _, c := range [][2]int{{-1, 10}, {3, -5}} {
		if res := wholegraph.SampleWithoutReplacement(c[0], c[1], rand.New(rand.NewSource(1))); len(res) != 0 {
			t.Errorf("SampleWithoutReplacement(%d, %d) drew %v, want nothing", c[0], c[1], res)
		}
	}
	comm, err := wholegraph.NewComm(machine.NodeDevs(0))
	if err != nil {
		t.Fatal(err)
	}
	mem := wholegraph.AllocFloats(comm, 1024)
	if mem.Len() != 1024 {
		t.Errorf("allocated %d elements", mem.Len())
	}

	// Store + loader compose directly too.
	m2 := wholegraph.NewDGXA100(1)
	store, err := wholegraph.NewStore(m2, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	ld := wholegraph.NewLoader(store, m2.Devs[0], []int{3}, 1)
	batch, _ := ld.BuildBatch(ds.Train[:4])
	if err := batch.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	machine := wholegraph.NewDGXA100(1)
	ds, err := wholegraph.GenerateDataset(wholegraph.OgbnProducts.Scaled(0.0005))
	if err != nil {
		t.Fatal(err)
	}

	tr, err := wholegraph.NewTrainer(machine, ds, wholegraph.TrainOptions{
		Arch: "gin", Batch: 16, Fanouts: []int{3}, Hidden: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint via the facade surface.
	path := t.TempDir() + "/m.ckpt"
	if err := tr.Models[0].Params().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := tr.Models[0].Params().LoadFile(path); err != nil {
		t.Fatal(err)
	}

	// Chrome trace export.
	machine.Devs[0].Tracing = true
	machine.Devs[0].Kernel(wholegraph.KernelCost{FLOPs: 1e6, Tag: "t"})
	var sb strings.Builder
	if err := wholegraph.WriteChromeTrace(&sb, machine.Devs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"t"`) {
		t.Error("trace missing tagged event")
	}
}

// flagTables renders the two groups of train.Options flags as the README
// shows them: name, -json key (execution/storage group) and help text.
func flagTables() string {
	var o wholegraph.TrainOptions
	var b strings.Builder
	model := flag.NewFlagSet("model", flag.ContinueOnError)
	o.BindModelFlags(model)
	b.WriteString("Model and optimizer (`BindModelFlags`):\n\n| flag | meaning |\n|---|---|\n")
	model.VisitAll(func(f *flag.Flag) {
		_, usage := flag.UnquoteUsage(f)
		fmt.Fprintf(&b, "| `-%s` | %s |\n", f.Name, usage)
	})
	exec := flag.NewFlagSet("exec", flag.ContinueOnError)
	o.BindExecFlags(exec)
	b.WriteString("\nExecution and storage (`BindExecFlags`):\n\n| flag | `-json` key | meaning |\n|---|---|---|\n")
	exec.VisitAll(func(f *flag.Flag) {
		_, usage := flag.UnquoteUsage(f)
		fmt.Fprintf(&b, "| `-%s` | `train.%s` | %s |\n", f.Name, strings.ReplaceAll(f.Name, "-", "_"), usage)
	})
	return b.String()
}

// TestREADMEFlagTables: the README's flag tables are the binding's own
// names and help texts, so the document cannot drift from the one place a
// knob is defined. On a mismatch the failure prints the block to paste.
func TestREADMEFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- flags:begin -->\n", "<!-- flags:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md lacks the %q … %q block", strings.TrimSpace(begin), end)
	}
	if want := flagTables(); got != want {
		t.Errorf("README.md's flag tables differ from the binding in internal/train/flags.go; the block should read:\n%s", want)
	}
}
