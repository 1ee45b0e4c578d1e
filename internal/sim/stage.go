package sim

import "fmt"

// Staging twins.
//
// Most of what a batch build does is host math whose result does not depend
// on virtual time: the kernels it launches are priced from byte and FLOP
// counts alone. A staging twin lets such work run away from its device —
// on another goroutine, ahead of the step that will consume it — without
// touching the device: Kernel on a twin appends the cost to a list and
// returns the duration the device would charge, and moves no clock, no
// Stats and no trace. Issuing the listed costs later with Kernel on the
// device itself, in order, on whatever stream is then current, reproduces
// every busy interval, counter and clock value of having launched them
// there directly.
//
// A twin carries its device's identity (ID, Node, Local, machine
// configuration), so code that asks "which rank am I" answers as on the
// device. It has no timeline: everything that reads, advances or orders
// virtual time — Now, events, stream selection, idle time, Malloc, copies,
// graph brackets, collectives — panics, so work that depends on the clock
// cannot be staged by accident. A twin is owned by one goroutine at a time,
// like a device.

// StagingTwin returns a new staging twin of d.
func (d *Device) StagingTwin() *Device {
	d.mustHaveTimeline()
	return &Device{ID: d.ID, Node: d.Node, Local: d.Local, m: d.m, twinOf: d}
}

// Real returns the device d stands for: the device a staging twin was made
// from, d itself otherwise.
func (d *Device) Real() *Device {
	if d.twinOf != nil {
		return d.twinOf
	}
	return d
}

// SwapStaged returns the costs staged on twin d since the previous call, in
// launch order, and continues staging into next[:0] — hand back the previous
// list once its costs have been issued and the steady state allocates
// nothing.
func (d *Device) SwapStaged(next []KernelCost) []KernelCost {
	if d.twinOf == nil {
		panic(fmt.Sprintf("sim: SwapStaged on device %d, which is not a staging twin", d.ID))
	}
	staged := d.staged
	d.staged = next[:0]
	return staged
}

// mustHaveTimeline panics on a staging twin. Every method that touches a
// clock, a stream or an event passes through it; the panic sits in its own
// function so the check itself inlines into the small accessors.
func (d *Device) mustHaveTimeline() {
	if d.twinOf != nil {
		d.panicNoTimeline()
	}
}

func (d *Device) panicNoTimeline() {
	panic(fmt.Sprintf("sim: staging twin of device %d has no timeline: only Kernel can be staged; clocks, events, streams and collectives need the device itself", d.ID))
}
