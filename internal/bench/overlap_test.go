package bench

import "testing"

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
