package sim

// Step-graph replay mode (CUDA-Graph analogue). A training step whose op
// sequence was captured once can be re-executed as a single graph launch:
// the host pays GraphLaunch once per replay instead of KernelLaunch per
// kernel, which is the overhead CUDA Graphs eliminate on the real system.
//
// A bracket is a flag, not a depth: one graph launch covers one step, and
// opening a second bracket inside the first panics. While the flag is set,
// Kernel() suppresses its per-kernel launch overhead and counts the kernel
// in Stats.GraphKernels, and busy intervals carry Interval.Graph so traces
// can show replayed work in its own category.
//
// Like every clock-advancing method, these are owner-only: call them from
// the goroutine that owns the device between barriers. They are also the one
// thing besides charges a recording device accepts (see stage.go): a
// scheduled replay records its GraphLaunch, and each recorded charge keeps
// whether it was priced inside the bracket.

// BeginGraphReplay enters graph-replay mode on the current stream, charging
// the one-time graph launch overhead as busy time tagged with the given tag
// (empty defaults to "graph-launch"). It panics inside an open bracket.
func (d *Device) BeginGraphReplay(tag string) {
	if d.inGraph {
		panic("sim: BeginGraphReplay inside an open graph-replay bracket")
	}
	if tag == "" {
		tag = "graph-launch"
	}
	// Charged after the flag is set: the launch is graph work, and a graph
	// charge is issued only inside a bracket.
	d.inGraph = true
	d.charge(Charge{Dur: d.m.Cfg.Device.GraphLaunch, Tag: tag, Graph: true, GraphLaunches: 1})
}

// EndGraphReplay closes the graph-replay bracket.
func (d *Device) EndGraphReplay() {
	if !d.inGraph {
		panic("sim: EndGraphReplay without matching BeginGraphReplay")
	}
	d.inGraph = false
}

// InGraphReplay reports whether the device is inside a graph-replay bracket.
func (d *Device) InGraphReplay() bool { return d.inGraph }
