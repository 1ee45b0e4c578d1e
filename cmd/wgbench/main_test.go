package main

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"wholegraph/internal/bench"
)

// TestReportCarriesEveryKnob: every execution/storage flag, parsed off its
// default, shows up in the -json report under "train" with the parsed value,
// keyed by its flag name — so a report says which configuration produced its
// numbers, and a knob added to train.Options needs no edit here to be
// recorded.
func TestReportCarriesEveryKnob(t *testing.T) {
	cfg := bench.Config{Scale: 2e-3, Seed: 5, Quick: true, Totals: &bench.Totals{}}
	fs := flag.NewFlagSet("wgbench", flag.ContinueOnError)
	cfg.Train.BindExecFlags(fs)
	want := map[string]any{}
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		key := strings.ReplaceAll(f.Name, "-", "_")
		switch f.DefValue {
		case "false":
			args, want[key] = append(args, "-"+f.Name), true
		case "0":
			args, want[key] = append(args, "-"+f.Name, "7"), 7.0
		default:
			args, want[key] = append(args, "-"+f.Name, "admit"), "admit"
		}
	})
	if len(want) != 12 {
		t.Fatalf("%d execution/storage flags bound, want 12", len(want))
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg.Totals.CommSeconds = 3
	buf, err := json.Marshal(jsonReport{Config: cfg, GOMAXPROCS: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Scale  float64        `json:"scale"`
		Seed   int64          `json:"seed"`
		Quick  bool           `json:"quick"`
		Train  map[string]any `json:"train"`
		Totals map[string]any `json:"totals"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Scale != 2e-3 || got.Seed != 5 || !got.Quick {
		t.Errorf("run settings read back as %+v", got)
	}
	for key, v := range want {
		if got.Train[key] != v {
			t.Errorf("report train.%s = %v, the command line set %v", key, got.Train[key], v)
		}
	}
	if got.Totals["comm_seconds"] != 3.0 {
		t.Errorf("report totals = %v", got.Totals)
	}
}
