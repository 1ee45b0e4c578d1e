package bench

import (
	"fmt"
	"sync"
	"time"

	"wholegraph/internal/blockcache"
	"wholegraph/internal/train"
)

// Totals is what a run's trainers added up to: hot-row cache traffic, both
// paged stores' BlockCache counters, step-graph counters and the collective
// engine's link traffic. An experiment cell folds each trainer in when it is
// done with it; Fold copies numbers and keeps no pointer, so a cell's
// machine, stores and caches are garbage the moment the cell returns. Reached
// through Config.Totals, one value per run; locked because cells fold
// concurrently under Config.Parallel.
type Totals struct {
	mu sync.Mutex

	CacheHits   int64                 `json:"cache_hits"`
	CacheMisses int64                 `json:"cache_misses"`
	FeatStore   blockcache.CacheStats `json:"featstore"`
	TopoStore   blockcache.CacheStats `json:"topostore"`
	Graph       train.GraphCounters   `json:"graph_counters"`
	// NVLink and InfiniBand egress bytes and stream-seconds spent in
	// collectives, summed over every device of every folded machine.
	NVLinkTxBytes float64 `json:"nvlink_tx_bytes"`
	IBTxBytes     float64 `json:"ib_tx_bytes"`
	CommSeconds   float64 `json:"comm_seconds"`
}

// Fold adds a finished trainer's counters and its machine's link counters.
// A nil Totals discards them.
func (t *Totals) Fold(tr *train.Trainer) {
	if t == nil {
		return
	}
	hits, misses := tr.CacheStats()
	feat, topo, graph := tr.FeatStoreStats(), tr.TopoStoreStats(), tr.GraphStats()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.CacheHits += hits
	t.CacheMisses += misses
	t.FeatStore.Add(feat.CacheStats)
	t.TopoStore.Add(topo.CacheStats)
	t.Graph.Add(graph)
	for _, d := range tr.Machine.Devs {
		t.NVLinkTxBytes += d.Stats.NVLinkTxBytes
		t.IBTxBytes += d.Stats.IBTxBytes
		t.CommSeconds += d.Stats.CommSeconds
	}
}

// Report renders the closing lines of a run, one per kind of counter that
// moved.
func (t *Totals) Report() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s string
	if n := t.CacheHits + t.CacheMisses; n > 0 {
		s += fmt.Sprintf("feature cache: %d hits / %d misses (%.1f%% hit rate)\n",
			t.CacheHits, t.CacheMisses, 100*float64(t.CacheHits)/float64(n))
	}
	if t.FeatStore.Hits+t.FeatStore.Misses > 0 {
		s += fmt.Sprintf("feature store: %v\n", t.FeatStore)
	}
	if t.TopoStore.Hits+t.TopoStore.Misses > 0 {
		s += fmt.Sprintf("topology store: %v\n", t.TopoStore)
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
