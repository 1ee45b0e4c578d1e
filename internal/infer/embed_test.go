package infer

import (
	"testing"

	"wholegraph/internal/sim"
)

// TestFullGraphSerialParallelBitEqual pins the extraction contract: the
// full-graph output matrix — and the virtual time the collection charges —
// is bit-identical whether the per-rank shard reads run serially or on real
// goroutines under sim.RunParallel.
func TestFullGraphSerialParallelBitEqual(t *testing.T) {
	prev := sim.SetParallel(false)
	defer sim.SetParallel(prev)
	mSer, storeSer, modelSer := testSetup(t, "graphsage")
	embSer, err := FullGraph(storeSer, modelSer)
	if err != nil {
		t.Fatal(err)
	}

	sim.SetParallel(true)
	mPar, storePar, modelPar := testSetup(t, "graphsage")
	embPar, err := FullGraph(storePar, modelPar)
	if err != nil {
		t.Fatal(err)
	}

	if embSer.R != embPar.R || embSer.C != embPar.C {
		t.Fatalf("shape differs: serial %dx%d, parallel %dx%d", embSer.R, embSer.C, embPar.R, embPar.C)
	}
	for i, v := range embSer.V {
		if v != embPar.V[i] {
			t.Fatalf("element %d differs: serial %v, parallel %v", i, v, embPar.V[i])
		}
	}
	for i, d := range mSer.Devs {
		if d.Now() != mPar.Devs[i].Now() {
			t.Fatalf("device %d clock differs: serial %v, parallel %v", i, d.Now(), mPar.Devs[i].Now())
		}
	}
}

// TestCollectCharged pins that the final host collection is a charged
// per-rank shard read, not a free host loop: every rank's device reports
// an infer.collect contribution via its local byte counters.
func TestCollectCharged(t *testing.T) {
	m, store, model := testSetup(t, "gcn")
	if _, err := FullGraph(store, model); err != nil {
		t.Fatal(err)
	}
	for i, d := range m.Devs {
		if d.Stats.LocalBytes <= 0 {
			t.Fatalf("device %d charged no local bytes during inference+collect", i)
		}
		if d.Now() <= 0 {
			t.Fatalf("device %d clock did not advance", i)
		}
	}
}
