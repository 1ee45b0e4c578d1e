package sim

// Step-graph replay mode (CUDA-Graph analogue). A training step whose op
// sequence was captured once can be re-executed as a single graph launch:
// the host pays GraphLaunch once per replay instead of KernelLaunch per
// kernel, which is the overhead CUDA Graphs eliminate on the real system.
//
// The device keeps a replay depth rather than a flag so nested brackets
// compose (e.g. a forward bracket inside a whole-step bracket); only the
// outermost bracket charges the graph launch. While the depth is positive,
// Kernel() suppresses its per-kernel launch overhead and counts the kernel
// in Stats.GraphKernels, and busy intervals carry Interval.Graph so traces
// can show replayed work in its own category.
//
// Like every clock-advancing method, these are owner-only: call them from
// the goroutine that owns the device between barriers.

// BeginGraphReplay enters graph-replay mode on the current stream. The
// outermost call charges the one-time graph launch overhead as busy time
// tagged with the given tag (empty defaults to "graph-launch").
func (d *Device) BeginGraphReplay(tag string) {
	d.mustHaveTimeline()
	d.graphDepth++
	if d.graphDepth == 1 {
		if tag == "" {
			tag = "graph-launch"
		}
		// Charged after the depth increment so the interval is flagged as
		// graph work in the trace.
		d.busy(d.m.Cfg.Device.GraphLaunch, tag)
		d.Stats.GraphLaunches++
	}
}

// EndGraphReplay leaves the innermost graph-replay bracket.
func (d *Device) EndGraphReplay() {
	if d.graphDepth == 0 {
		panic("sim: EndGraphReplay without matching BeginGraphReplay")
	}
	d.graphDepth--
}

// InGraphReplay reports whether the device is inside a graph-replay bracket.
func (d *Device) InGraphReplay() bool { return d.graphDepth > 0 }
