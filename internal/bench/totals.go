package bench

import (
	"fmt"
	"time"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/train"
)

// Totals is what a run's trainers added up to: both paged stores'
// BlockCache counters, step-graph counters and the collective engine's link
// traffic. An experiment cell folds each trainer in when it is done with it;
// Fold copies numbers and keeps no pointer, so a cell's machine and stores
// are garbage the moment the cell returns. Reached through Config.Totals, one
// value per run. Unlocked: concurrent cells each fold into a value of their
// own, which runCells adds up after the join.
type Totals struct {
	FeatStore blockcache.CacheStats `json:"featstore"`
	TopoStore blockcache.CacheStats `json:"topostore"`
	Graph     train.GraphCounters   `json:"graph_counters"`
	// NVLink and InfiniBand egress bytes and stream-seconds spent in
	// collectives, summed over every device of every folded machine.
	NVLinkTxBytes float64 `json:"nvlink_tx_bytes"`
	IBTxBytes     float64 `json:"ib_tx_bytes"`
	CommSeconds   float64 `json:"comm_seconds"`
	// PeakRSSMiB is the process's resident-set high-water mark, a host
	// quantity read once when the report is written (PeakRSSBytes); never
	// folded.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

// Fold adds a finished trainer's counters and its machine's link counters.
// A nil Totals discards them.
func (t *Totals) Fold(tr *train.Trainer) {
	if t == nil {
		return
	}
	o := Totals{
		FeatStore: tr.FeatStoreStats().CacheStats,
		TopoStore: tr.TopoStoreStats().CacheStats,
		Graph:     tr.GraphStats(),
	}
	for _, d := range tr.Machine.Devs {
		o.NVLinkTxBytes += d.Stats.NVLinkTxBytes
		o.IBTxBytes += d.Stats.IBTxBytes
		o.CommSeconds += d.Stats.CommSeconds
	}
	t.add(&o)
}

// add accumulates o into t; a nil t discards it.
func (t *Totals) add(o *Totals) {
	if t == nil {
		return
	}
	t.FeatStore.Add(o.FeatStore)
	t.TopoStore.Add(o.TopoStore)
	t.Graph.Add(o.Graph)
	t.NVLinkTxBytes += o.NVLinkTxBytes
	t.IBTxBytes += o.IBTxBytes
	t.CommSeconds += o.CommSeconds
}

// Report renders the closing lines of a run, one per kind of counter that
// moved.
func (t *Totals) Report() string {
	var s string
	if t.FeatStore.Hits+t.FeatStore.Misses > 0 {
		s += fmt.Sprintf("feature store: %v, %d pages allocated\n", t.FeatStore, t.FeatStore.PagesAllocated)
	}
	if t.TopoStore.Hits+t.TopoStore.Misses > 0 {
		s += fmt.Sprintf("topology store: %v, %d pages allocated\n", t.TopoStore, t.TopoStore.PagesAllocated)
	}
	if t.Graph.Active() {
		s += fmt.Sprintf("%v\n", t.Graph)
	}
	if t.CommSeconds > 0 {
		s += fmt.Sprintf("collectives: %.3f GB NVLink, %.3f GB IB, %s stream time\n",
			t.NVLinkTxBytes/1e9, t.IBTxBytes/1e9,
			time.Duration(t.CommSeconds*float64(time.Second)).Round(time.Microsecond))
	}
	return s
}
