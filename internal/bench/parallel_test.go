package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// TestParallelCellsIdenticalOutput pins the -parallel contract: fanning
// experiment cells across goroutines must produce byte-identical reports
// (same virtual times, same accuracies, same row order) for the converted
// experiments. Table3 exercises the accuracy pipelines, Table5 the timing
// pipelines, Fig13 the multi-node machines.
func TestParallelCellsIdenticalOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) error
	}{
		{"table3", func(c Config) error { _, err := Table3(c); return err }},
		{"table5", func(c Config) error { _, err := Table5(c); return err }},
		{"fig13", func(c Config) error {
			rows, err := Fig13(c)
			if err == nil && rows[0].ScaleUsed != 1e-3 {
				err = fmt.Errorf("fig13 asked for scale %g records %g, want its 1e-3 floor", c.Scale, rows[0].ScaleUsed)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report := func(parallel bool) string {
				var buf bytes.Buffer
				cfg := Config{Quick: true, Scale: 2e-4, Epochs: 2, Seed: 1, Parallel: parallel, W: &buf}
				if err := tc.run(cfg); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			serial := report(false)
			parallel := report(true)
			if serial != parallel {
				t.Errorf("reports differ\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
			if serial == "" {
				t.Error("empty report")
			}
		})
	}
}

func TestRunCellsErrorAndOrder(t *testing.T) {
	var serialOrder []int
	cfg := Config{}.normalize()
	if err := cfg.runCells(4, func(i int, _ *Totals) error {
		serialOrder = append(serialOrder, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range serialOrder {
		if v != i {
			t.Fatalf("serial cell order %v", serialOrder)
		}
	}

	pcfg := cfg
	pcfg.Parallel = true
	wantErr := false
	err := pcfg.runCells(3, func(i int, _ *Totals) error {
		if i == 1 {
			wantErr = true
			return errTest
		}
		return nil
	})
	if err != errTest || !wantErr {
		t.Fatalf("parallel error not propagated: %v", err)
	}
}

var errTest = &cellError{}

type cellError struct{}

func (*cellError) Error() string { return "cell failed" }
