package bench

import "testing"

// TestAblationSchedRegression pins the scheduler's performance guarantee at
// the harness level: in every cell the scheduled epoch is no slower than
// the plain captured one (the serial fallback makes this a hard invariant),
// at least one cell shows a strict win, losses match bit-for-bit, and
// scheduled replays actually ran — four per cell, the measured epochs, so a
// row is a mean and not one iteration. The table's one axis (Schedule) moves
// a counter in every row and a time in at least one.
func TestAblationSchedRegression(t *testing.T) {
	rows, err := AblationSched(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no cells ran")
	}
	strict := false
	for _, r := range rows {
		if !r.LossMatch {
			t.Errorf("%s/%d: loss drifted between captured and scheduled", r.Arch, r.Nodes)
		}
		if r.Scheduled < 4 {
			t.Errorf("%s/%d: %d scheduled replays, want the 4 measured epochs", r.Arch, r.Nodes, r.Scheduled)
		}
		if r.ScheduledEpoch > r.CapturedEpoch {
			t.Errorf("%s/%d: scheduled epoch %.6g slower than captured %.6g",
				r.Arch, r.Nodes, r.ScheduledEpoch, r.CapturedEpoch)
		}
		if r.ScheduledEpoch < r.CapturedEpoch {
			strict = true
		}
	}
	if !strict {
		t.Error("no cell showed a strict scheduled win over plain capture")
	}
}

// TestAblationOverlapGradsAxisMoves: an axis that is on changes at least one
// counter or time. Every overlapped epoch differs from its blocking twin, and
// the overlapped run's collectives moved bytes and took stream time.
func TestAblationOverlapGradsAxisMoves(t *testing.T) {
	rows, err := AblationOverlapGrads(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no cells ran")
	}
	for _, r := range rows {
		if r.OverlapEpoch == r.BlockEpoch {
			t.Errorf("hidden %d nodes %d: overlapped epoch equals blocking epoch (%.6g s): the axis is a no-op",
				r.Hidden, r.Nodes, r.BlockEpoch)
		}
		if r.NVLinkMB == 0 || r.CommSeconds == 0 || (r.Nodes > 1 && r.IBMB == 0) {
			t.Errorf("hidden %d nodes %d: collectives recorded nothing: %+v", r.Hidden, r.Nodes, r)
		}
	}
}
