package sim

import "fmt"

// Deferred charges.
//
// A kernel's price depends on its byte and FLOP counts, not on virtual time,
// so work can be priced in one place and put on a timeline in another. A
// recording device (Record) appends each busy-time charge — a kernel, a
// Malloc, a graph launch, a pointer chase — to a list its caller owns and
// moves no clock, no Stats and no trace; Issue later puts the list on the
// current stream, reproducing every busy interval, counter and clock value of
// charging it there directly. The run-ahead loader prices batch builds on a
// staging twin (a device that can only record); the whole-step scheduler
// records a replayed step on the device itself and issues each DAG node's
// stretch of the list at the node's scheduled position; and a replay's
// helpers price records on graph twins, which the owner recharges.
//
// A recording device has no timeline: everything that reads, advances or
// orders virtual time — Now, events, stream selection, idle time, copies,
// collectives — panics, so clock-dependent work cannot be deferred by
// accident. The graph-replay bracket is the exception (a scheduled replay
// records its GraphLaunch); a charge keeps whether it was priced inside a
// bracket, and issuing it on the other side of one panics. A twin carries its
// device's ID, Node, Local and machine, so code that asks "which rank am I"
// answers as on the device; like a device, it is owned by one goroutine at a
// time.

// Charge is one priced stretch of busy time and the op counters it adds to
// DeviceStats when issued.
type Charge struct {
	Dur   float64 // seconds, priced when the charge was made
	Tag   string  // labels the busy interval in traces
	Graph bool    // priced inside a graph-replay bracket
	// Kernels and GraphLaunches count launches; the rest is a kernel's
	// traffic and arithmetic or a Malloc's size, as in DeviceStats.
	Kernels, GraphLaunches                                   int64
	FLOPs, LocalBytes, RemoteBytes, HostBytes, AllocatedByte float64
}

// StagingTwin returns a new staging twin of d. It records nothing until
// pointed at a list with Record.
func (d *Device) StagingTwin() *Device {
	d.mustHaveTimeline()
	return &Device{ID: d.ID, Node: d.Node, Local: d.Local, m: d.m, twinOf: d}
}

// GraphTwin is a StagingTwin that prices inside a graph-replay bracket, for
// a replay's work off d's goroutine; d may be recording.
func (d *Device) GraphTwin() *Device {
	if d.twinOf != nil {
		d.panicNoTimeline()
	}
	return &Device{ID: d.ID, Node: d.Node, Local: d.Local, m: d.m, twinOf: d, inGraph: true}
}

// Real returns the device d stands for: the device a staging twin was made
// from, d itself otherwise.
func (d *Device) Real() *Device {
	if d.twinOf != nil {
		return d.twinOf
	}
	return d
}

// Record makes d append its charges to *list from now on instead of putting
// them on a timeline; Record(nil) stops, which gives a device, but not a
// staging twin, its timeline back. Reusing one list after it has been issued
// makes the steady state allocate nothing.
func (d *Device) Record(list *[]Charge) { d.recording = list }

// Issue puts the charges of list on the current stream in order, exactly
// once each, as charging them here directly would have: clock, Stats and
// trace. node labels their trace intervals with a scheduler DAG node ID (0
// for none). A charge priced on the other side of a graph-replay bracket
// panics.
func (d *Device) Issue(list []Charge, node int) {
	for i := range list {
		d.issue(&list[i], node)
	}
}

// Recharge charges list on d as if d had priced it: recorded when d is
// recording, else issued.
func (d *Device) Recharge(list []Charge) {
	for i := range list {
		d.charge(list[i])
	}
}

// charge records c on a recording device and issues it otherwise.
func (d *Device) charge(c Charge) {
	if d.recording != nil {
		*d.recording = append(*d.recording, c)
		return
	}
	d.issue(&c, 0)
}

func (d *Device) issue(c *Charge, node int) {
	d.mustHaveTimeline()
	if c.Graph != d.inGraph {
		panic(fmt.Sprintf("sim: charge %q priced with graph replay %v issued on device %d with graph replay %v",
			c.Tag, c.Graph, d.ID, d.inGraph))
	}
	if c.Dur > 0 {
		d.advance(c.Dur, Interval{Busy: true, Tag: c.Tag, Graph: c.Graph, Node: node})
	}
	d.Stats.Kernels += c.Kernels
	if c.Graph {
		d.Stats.GraphKernels += c.Kernels
	}
	d.Stats.GraphLaunches += c.GraphLaunches
	d.Stats.FLOPs += c.FLOPs
	d.Stats.LocalBytes += c.LocalBytes
	d.Stats.RemoteBytes += c.RemoteBytes
	d.Stats.HostBytes += c.HostBytes
	d.Stats.AllocatedByte += c.AllocatedByte
}

// mustHaveTimeline panics on a staging twin or a recording device. Every
// method that touches a clock, a stream or an event passes through it; the
// panic sits in its own function so the check itself inlines into the small
// accessors.
func (d *Device) mustHaveTimeline() {
	if d.recording != nil || d.twinOf != nil {
		d.panicNoTimeline()
	}
}

func (d *Device) panicNoTimeline() {
	who := fmt.Sprintf("device %d is recording and", d.ID)
	if d.twinOf != nil {
		who = fmt.Sprintf("staging twin of device %d", d.ID)
	}
	panic(fmt.Sprintf("sim: %s has no timeline: only charges and graph brackets can be recorded; clocks, events, streams and collectives need the device itself", who))
}
