package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// host time from the monotonic clock, virtual time from the clock of the
// simulated device the call charged.
type span struct {
	Name      string  `json:"name"`
	ID        int     `json:"id"`     // 1-based
	Parent    int     `json:"parent"` // 0 = root
	Op        int     `json:"op"`     // epoch, iteration or step index
	Lane      int     `json:"lane"`   // 1 = the wrapped run, 2 = the layer driver
	StartNs   int64   `json:"start_ns"`
	EndNs     int64   `json:"end_ns"`
	VirtStart float64 `json:"virt_start"`
	VirtEnd   float64 `json:"virt_end"`
}

func (s *span) hostNs() float64 { return float64(s.EndNs - s.StartNs) }
func (s *span) virt() float64   { return s.VirtEnd - s.VirtStart }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine at a time: every workload runs one real worker, so the loader
// wrapper and the harness never record concurrently (sim.RunParallel's
// fork and join order the accesses).
//
// A nil *recorder records nothing, so untraced code paths share the
// traced ones' call sites.
type recorder struct {
	t0    time.Time
	lane  int // lane stamped on new spans
	spans []span
	open  []int // stack of open span IDs
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), lane: laneRun} }

const (
	laneRun    = 1
	laneDriver = 2
)

// begin opens a span under the innermost open span and returns its ID.
func (r *recorder) begin(name string, op int, virt float64) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Lane: r.lane, VirtStart: virt})
	r.open = append(r.open, id)
	r.spans[id-1].StartNs = int64(time.Since(r.t0))
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int, virt float64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id-1]
	s.EndNs, s.VirtEnd = now, virt
}

// spanTotals aggregates every span of one name.
type spanTotals struct {
	Calls             int
	HostNs, SelfNs    float64 // self = span minus the part its children cover
	VirtSec, SelfVirt float64
}

// totals sums spans by name. Children of a span never overlap (one
// goroutine records them in sequence), so self time is span minus the sum
// of its direct children.
func (r *recorder) totals() map[string]*spanTotals {
	childNs := make([]float64, len(r.spans)+1)
	childVirt := make([]float64, len(r.spans)+1)
	for i := range r.spans {
		s := &r.spans[i]
		childNs[s.Parent] += s.hostNs()
		childVirt[s.Parent] += s.virt()
	}
	out := map[string]*spanTotals{}
	for i := range r.spans {
		s := &r.spans[i]
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Calls++
		t.HostNs += s.hostNs()
		t.SelfNs += s.hostNs() - childNs[s.ID]
		t.VirtSec += s.virt()
		t.SelfVirt += s.virt() - childVirt[s.ID]
	}
	return out
}

// validate reports structural defects: an unclosed span, a child outside
// its parent's interval, or a negative self time.
func (r *recorder) validate() error {
	if len(r.open) != 0 {
		return fmt.Errorf("trace: %d spans left open", len(r.open))
	}
	childNs := make([]int64, len(r.spans)+1)
	for i := range r.spans {
		s := &r.spans[i]
		if s.EndNs < s.StartNs {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := &r.spans[s.Parent-1]
			if s.Parent >= s.ID || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				return fmt.Errorf("trace: span %d (%s) not nested in parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
		childNs[s.Parent] += s.EndNs - s.StartNs
	}
	for i := range r.spans {
		s := &r.spans[i]
		if childNs[s.ID] > s.EndNs-s.StartNs {
			return fmt.Errorf("trace: span %d (%s) has negative self time", s.ID, s.Name)
		}
	}
	return nil
}

// writeChrome writes the spans as Chrome Trace Event JSON (open in
// chrome://tracing or ui.perfetto.dev); the wrapped run and the layer
// driver show as two threads.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.StartNs) / 1e3, Dur: s.hostNs() / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "op": s.Op,
				"virt_start": s.VirtStart, "virt_end": s.VirtEnd,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
