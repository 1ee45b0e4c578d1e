package train

import (
	"slices"
	"testing"

	"wholegraph/internal/sim"
)

func predictTrainer(t *testing.T) *Trainer {
	t.Helper()
	tr, err := New(sim.NewMachine(sim.DGXA100(1)), smallDataset(t), smallOpts("graphsage"))
	if err != nil {
		t.Fatal(err)
	}
	tr.RunEpoch()
	return tr
}

// TestPredictCoalescesDuplicateIDs is the regression test for the panic
// `unique: duplicate target` on a repeated id: duplicates inside a batch are
// sampled and forwarded once, every position still gets its row, and the
// distinct ids see exactly the batch a duplicate-free call builds.
func TestPredictCoalescesDuplicateIDs(t *testing.T) {
	got, err := predictTrainer(t).Predict([]int64{5, 7, 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := predictTrainer(t).Predict([]int64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) || !slices.Equal(got[2], want[0]) {
		t.Fatalf("Predict({5,7,5}) = %v, want rows of {5,7}: %v", got, want)
	}

	// Duplicates on both sides of a batch boundary (Batch is 32), and the
	// two evaluation entry points on the same list.
	tr := predictTrainer(t)
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(i % 4)
	}
	rows, err := tr.Predict(ids)
	if err != nil || len(rows) != len(ids) {
		t.Fatalf("Predict over repeated ids: %d rows, err %v", len(rows), err)
	}
	if !slices.Equal(rows[0], rows[4]) || !slices.Equal(rows[32], rows[36]) {
		t.Error("positions of one id inside one batch got different rows")
	}
	if acc, err := tr.Evaluate([]int64{3, 3, 3, 3}, 0); err != nil || (acc != 0 && acc != 1) {
		t.Errorf("Evaluate of one node four times = %v, %v; want 0 or 1", acc, err)
	}
	if acc, err := tr.EvaluateWithLabels(ids, make([]int32, len(ids))); err != nil || acc < 0 || acc > 1 {
		t.Errorf("EvaluateWithLabels over repeated ids = %v, %v", acc, err)
	}
}

// TestPredictRejectsOutOfRangeIDs: an id that is not a node used to die
// with an index panic at pg.Owner[v]; it is an error now, reported before
// any work is charged.
func TestPredictRejectsOutOfRangeIDs(t *testing.T) {
	tr := predictTrainer(t)
	n := int64(len(tr.ds.Labels))
	before := tr.Machine.MaxTime()
	for _, ids := range [][]int64{{n}, {0, -1}, {1, 2, n + 5}} {
		if rows, err := tr.Predict(ids); err == nil || rows != nil {
			t.Errorf("Predict(%v) = %d rows, err %v; want an error", ids, len(rows), err)
		}
		if _, err := tr.Evaluate(ids, 0); err == nil {
			t.Errorf("Evaluate(%v) accepted", ids)
		}
		if _, err := tr.EvaluateWithLabels(ids, make([]int32, len(ids))); err == nil {
			t.Errorf("EvaluateWithLabels(%v) accepted", ids)
		}
	}
	if _, err := tr.EvaluateWithLabels([]int64{1, 2}, []int32{0}); err == nil {
		t.Error("EvaluateWithLabels accepted 2 ids with 1 label")
	}
	if after := tr.Machine.MaxTime(); after != before {
		t.Errorf("rejected calls advanced the clock: %g -> %g", before, after)
	}
	if acc, err := tr.Evaluate(nil, 0); err != nil || acc != 0 {
		t.Errorf("Evaluate of no ids = %v, %v", acc, err)
	}
}
