package sim

// Step-level collective engine.
//
// The paper's system sends three collectives: the IPC-handle AllGather at
// store setup (StartRingAllGather, §III-B), the hierarchical NVLink +
// InfiniBand gradient AllReduce (StartHierarchicalAllReduce and its blocking
// form HierarchicalAllReduce, §III-D), and the AlltoAllv of the
// distributed-memory gather baseline (AlltoAllvBytes, Fig. 4/10). Barrier
// (sim.go) is the fourth synchronization point.
//
// Each collective decomposes into exchange rounds, and one function,
// exchange, prices a round: every device sends its own chunk to the peer at
// a fixed offset — 1 for every round of a ring, r for pairwise round r of an
// AlltoAllv. A hop starts once sender and receiver have finished the
// previous round and the sender's egress link is free, and it occupies that
// link for its duration. Links are modeled per fabric: a device's NVLink
// egress port for intra-node hops, the node's aggregate InfiniBand NIC for
// inter-node hops — so a device set that spans nodes pays IB cost on the
// crossing hops, and two collectives in flight at once serialize on any
// link they share.
//
// The Start* entry points issue on either stream (CollOpts.Stream) with
// per-device earliest-start gates (CollOpts.StartAt), and the returned
// Collective carries per-device completion events, so a caller can overlap
// a collective with independent work and join later with WaitEvent — the
// mechanism behind train.Options.OverlapGrads. The blocking entry points run
// on the compute stream and join every participant at the completion time.
// Like Barrier, every entry point reads and advances multiple device clocks
// and the machine's link table, so it must run from the orchestrating
// goroutine, never from inside a RunParallel region.

// CollOpts configures a step-level collective launch. The zero value means
// compute stream, no start gates, default trace tag.
type CollOpts struct {
	// Stream is the per-device timeline the transfer steps charge on.
	Stream StreamKind
	// StartAt, when non-nil, gates each device's participation: device i
	// joins the ring no earlier than StartAt[i] (e.g. when its gradient
	// bucket became ready), even if its stream clock is behind.
	StartAt []float64
	// Tag labels the busy intervals in traces ("" picks a default).
	Tag string
}

// Collective is the handle of an issued collective: per-device completion
// events (aligned with Devs) plus their maximum. The issuing stream is
// recorded so Wait can join on the right timeline.
type Collective struct {
	Devs   []*Device
	Stream StreamKind
	Done   []Event
	End    float64
}

// Wait blocks every participating device's issuing stream until the whole
// collective completed (all devices reach End).
func (c *Collective) Wait() {
	for _, d := range c.Devs {
		prev := d.SetStream(c.Stream)
		d.IdleUntil(c.End)
		d.SetStream(prev)
	}
}

// StartRingAllGather issues a ring AllGather where each device contributes
// bytes: n-1 rounds each forwarding a full contribution.
func StartRingAllGather(devs []*Device, bytes float64, o CollOpts) *Collective {
	m := devs[0].m
	ready := m.collReady[:len(devs)]
	initReady(devs, ready, o.Stream, o.StartAt)
	ringSteps(devs, ready, len(devs)-1, bytes, o.Stream, tagOr(o.Tag, "allgather"))
	return newCollective(devs, o.Stream, ready)
}

// StartHierarchicalAllReduce issues a gradient AllReduce across the whole
// machine: per-node ring reduce-scatter over NVLink, an inter-node ring
// over InfiniBand on the node shards, and a per-node ring allgather.
// StartAt, when given, must cover m.Devs.
func StartHierarchicalAllReduce(m *Machine, bytes float64, o CollOpts) *Collective {
	ready := m.collReady[:len(m.Devs)]
	initReady(m.Devs, ready, o.Stream, o.StartAt)
	hierarchicalSteps(m, bytes, o.Stream, tagOr(o.Tag, "allreduce"), ready)
	return newCollective(m.Devs, o.Stream, ready)
}

// HierarchicalAllReduce charges a blocking gradient AllReduce across the
// machine on the compute stream: the steps of StartHierarchicalAllReduce,
// then every device joins at the completion time, which it returns. It runs
// every training iteration, so it allocates no Collective.
func HierarchicalAllReduce(m *Machine, bytes float64) float64 {
	if len(m.Devs) < 2 {
		return 0
	}
	ready := m.collReady[:len(m.Devs)]
	initReady(m.Devs, ready, StreamCompute, nil)
	hierarchicalSteps(m, bytes, StreamCompute, "allreduce", ready)
	return joinCompute(m.Devs, ready)
}

// AlltoAllvBytes charges a blocking AlltoAllv over the devices where
// sendBytes[i][j] is the payload device i sends to device j, and returns the
// completion time. NCCL implements AlltoAllv as pairwise exchanges: in round
// r = 1..n-1 device i sends its payload for peer (i+r) mod n while receiving
// from peer (i-r) mod n, and the next round starts only once a device
// finished both sides of the current one. The diagonal is never sent.
func AlltoAllvBytes(devs []*Device, sendBytes [][]float64) float64 {
	n := len(devs)
	if n < 2 {
		return 0
	}
	m := devs[0].m
	ready := m.collReady[:n]
	initReady(devs, ready, StreamCompute, nil)
	chunk := m.collChunk[:n]
	for r := 1; r < n; r++ {
		for i := range chunk {
			chunk[i] = sendBytes[i][(i+r)%n]
		}
		exchange(devs, ready, chunk, r, StreamCompute, "alltoallv")
	}
	return joinCompute(devs, ready)
}

// nvlinkP2PTime is the time to move bytes between two GPUs of one node over
// NVLink as one bulk message.
func nvlinkP2PTime(m *Machine, bytes float64) float64 {
	l := m.Cfg.Link
	return l.P2PBaseLatency + bytes/(l.NVLinkUniGBs*1e9*0.9)
}

// ibTime is the time to move bytes between two nodes as one bulk message.
func ibTime(m *Machine, bytes float64) float64 {
	l := m.Cfg.Link
	return l.IBLatency + bytes/(l.IBGBs*1e9*0.9)
}

// initReady seeds the per-device ready times from the stream clocks and the
// optional StartAt gates.
func initReady(devs []*Device, ready []float64, k StreamKind, startAt []float64) {
	for i, d := range devs {
		t := d.StreamNow(k)
		if startAt != nil && startAt[i] > t {
			t = startAt[i]
		}
		ready[i] = t
	}
}

func tagOr(tag, def string) string {
	if tag == "" {
		return def
	}
	return tag
}

// newCollective snapshots the ready times into a fresh handle.
func newCollective(devs []*Device, k StreamKind, ready []float64) *Collective {
	c := &Collective{Devs: devs, Stream: k, Done: make([]Event, len(devs))}
	for i, t := range ready {
		c.Done[i] = Event{T: t}
		if t > c.End {
			c.End = t
		}
	}
	return c
}

// exchange runs one round in which every device devs[i] sends chunk[i]
// bytes to devs[(i+off) mod n]. ready carries per-device completion times
// in and out (exact values, independent of the charged interval rounding).
// A hop from devs[i] to devs[j] starts at max(ready[i], ready[j], linkFree)
// — the receiver must have finished its previous round, and concurrent
// collectives serialize on shared links — and the sender's egress link
// (NVLink port intra-node, the node NIC across nodes) stays busy until the
// hop ends. A device's share of the round spans its own send and the one it
// receives. Scratch lives on the machine, keeping steady-state training
// allocation-free.
func exchange(devs []*Device, ready, chunk []float64, off int, k StreamKind, tag string) {
	n := len(devs)
	m := devs[0].m
	sendStart := m.collSendStart[:n]
	sendEnd := m.collSendEnd[:n]
	for i, src := range devs {
		j := (i + off) % n
		dst := devs[j]
		start := ready[i]
		if ready[j] > start {
			start = ready[j]
		}
		var hop float64
		var free *float64
		if src.Node != dst.Node {
			hop = ibTime(m, chunk[i])
			free = &m.ibFree[src.Node]
			src.Stats.IBTxBytes += chunk[i]
		} else {
			hop = nvlinkP2PTime(m, chunk[i])
			free = &m.nvlinkFree[src.ID]
			src.Stats.NVLinkTxBytes += chunk[i]
		}
		if *free > start {
			start = *free
		}
		sendStart[i] = start
		sendEnd[i] = start + hop
		*free = sendEnd[i]
	}
	for i, d := range devs {
		p := (i - off + n) % n
		s := sendStart[i]
		if sendStart[p] < s {
			s = sendStart[p]
		}
		e := sendEnd[i]
		if sendEnd[p] > e {
			e = sendEnd[p]
		}
		chargeComm(d, k, s, e, tag)
		ready[i] = e
	}
}

// ringSteps advances the devices through rounds ring rounds in which every
// device sends one chunk-sized message to its ring successor.
func ringSteps(devs []*Device, ready []float64, rounds int, chunk float64, k StreamKind, tag string) {
	n := len(devs)
	if n < 2 {
		return
	}
	c := devs[0].m.collChunk[:n]
	for i := range c {
		c[i] = chunk
	}
	for r := 0; r < rounds; r++ {
		exchange(devs, ready, c, 1, k, tag)
	}
}

// hierarchicalSteps runs the three-phase hierarchical AllReduce on the
// ready array. With one node it degenerates to a single intra-node ring
// AllReduce: 2(g-1) rounds of bytes/g.
func hierarchicalSteps(m *Machine, bytes float64, k StreamKind, tag string, ready []float64) {
	g := m.Cfg.GPUsPerNode
	nodes := m.Cfg.Nodes
	if nodes == 1 {
		ringSteps(m.Devs, ready, 2*(g-1), bytes/float64(g), k, tag)
		return
	}
	// Phase 1: intra-node ring reduce-scatter, independent per node.
	if g > 1 {
		for n := 0; n < nodes; n++ {
			ringSteps(m.NodeDevs(n), ready[n*g:(n+1)*g], g-1, bytes/float64(g), k, tag)
		}
	}
	// Phase 2: inter-node ring AllReduce over the per-node shards
	// (bytes/g), 2(nodes-1) rounds of bytes/(g*nodes) chunks. Each node's
	// GPUs drive their NIC shares in parallel, so the chunk moves at the
	// node's full aggregate IB bandwidth (the analytic model's assumption,
	// kept); the node NIC is the contended link.
	chunk := bytes / float64(g*nodes)
	nodeReady := m.nodeReady[:nodes]
	for n := 0; n < nodes; n++ {
		t := ready[n*g]
		for i := n*g + 1; i < (n+1)*g; i++ {
			if ready[i] > t {
				t = ready[i]
			}
		}
		nodeReady[n] = t
	}
	ss := m.nodeSendStart[:nodes]
	se := m.nodeSendEnd[:nodes]
	perDev := chunk / float64(g)
	for r := 0; r < 2*(nodes-1); r++ {
		for n := 0; n < nodes; n++ {
			next := n + 1
			if next == nodes {
				next = 0
			}
			start := nodeReady[n]
			if nodeReady[next] > start {
				start = nodeReady[next]
			}
			if m.ibFree[n] > start {
				start = m.ibFree[n]
			}
			ss[n] = start
			se[n] = start + ibTime(m, chunk)
			m.ibFree[n] = se[n]
		}
		for n := 0; n < nodes; n++ {
			p := n - 1
			if p < 0 {
				p = nodes - 1
			}
			s := ss[n]
			if ss[p] < s {
				s = ss[p]
			}
			e := se[n]
			if se[p] > e {
				e = se[p]
			}
			for i := n * g; i < (n+1)*g; i++ {
				m.Devs[i].Stats.IBTxBytes += perDev
				chargeComm(m.Devs[i], k, s, e, tag)
				ready[i] = e
			}
			nodeReady[n] = e
		}
	}
	// Phase 3: intra-node ring allgather of the reduced shards.
	if g > 1 {
		for n := 0; n < nodes; n++ {
			ringSteps(m.NodeDevs(n), ready[n*g:(n+1)*g], g-1, bytes/float64(g), k, tag)
		}
	}
}

// chargeComm records the device's share of one round, [s, e), on stream k:
// the gap from the stream clock to s (waiting on peers, a busy link, or a
// StartAt gate) is idle, the rest is communication busy time.
func chargeComm(d *Device, k StreamKind, s, e float64, tag string) {
	prev := d.SetStream(k)
	if now := d.Now(); s > now {
		d.idle(s-now, "comm-wait")
	}
	if now := d.Now(); e > now {
		d.commBusy(e-now, tag)
	}
	d.SetStream(prev)
}

// joinCompute idles every device's compute stream to the collective's end
// and returns it: the blocking, barrier-like semantics of the blocking
// entry points.
func joinCompute(devs []*Device, ready []float64) float64 {
	end := 0.0
	for _, t := range ready {
		if t > end {
			end = t
		}
	}
	for _, d := range devs {
		prev := d.SetStream(StreamCompute)
		d.IdleUntil(end)
		d.SetStream(prev)
	}
	return end
}
