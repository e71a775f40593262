// Runtime fault plane: the device-layer realization of a fault.Plan.
// Link state lives here (the Topology stays immutable so parallel runs
// can share it); routing consults it through Network.Route, transmit
// paths through Network.linkDropped, and scheduled events mutate it via
// capture-free engine callbacks. Everything is driven by the sim clock
// and per-link PRNGs forked from the run seed, so faulted runs remain
// bit-identical at any parallelism.

package device

import (
	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// geChain is one directed link's Gilbert–Elliott state. The PRNG is
// embedded by value and seeded from (run seed, node, port), so chains
// are independent of each other and of every other random draw.
type geChain struct {
	on  bool // burst loss applies to this directed port
	bad bool
	rnd sim.Rand
}

// Fault events decompose into per-endpoint sub-events at install time,
// so that under the sharded executor each shard schedules exactly the
// sub-events touching its own devices. All sub-events run at priority
// sim.PriFault (before any same-timestamp wire delivery or timer) and
// are installed in plan order, so each shard executes the plan-order
// subsequence it owns — the same relative order a single-shard run
// executes. Each sub-event reads and writes only its own endpoint's
// state, which is what makes the decomposition partition-invariant.

// linkHalfArg applies one endpoint's side of a link transition.
type linkHalfArg struct {
	n       *Network
	node    packet.NodeID // endpoint this half updates
	port    int           // node's port toward the other endpoint
	up      bool
	primary bool // the Link.A half counts the transition once
}

func linkHalfFn(a any) { arg := a.(*linkHalfArg); arg.n.applyLinkHalf(arg) }

// restartArg executes a switch restart's own-state teardown.
type restartArg struct {
	n  *Network
	id packet.NodeID
}

func restartFn(a any) { arg := a.(*restartArg); arg.n.restartSwitch(arg.id) }

// nudgeArg resynchronizes one neighbor of a restarted switch.
type nudgeArg struct {
	n    *Network
	peer packet.NodeID
	port int // peer's port toward the restarted switch
}

func nudgeFn(a any) {
	arg := a.(*nudgeArg)
	if arg.n.Topo.Node(arg.peer).Kind == topo.SwitchNode {
		arg.n.Switches[arg.peer].onPeerReset(arg.port)
		return
	}
	arg.n.HostsByID[arg.peer].onPeerReset()
}

// faultState is the network's mutable fault-plane state.
type faultState struct {
	plan      *fault.Plan
	down      []bool    // by directed port (topo.PortID): the port's link is out of service
	ge        []geChain // by directed port; nil without a burst-loss model
	downPorts int       // own directed ports currently out of service
	downAt    []int32   // [node]: locally down ports — Route's fast-path gate

	linkEvents int // link state transitions applied (primary halves)
	linksDown  int // bidirectional links currently down (primary halves)
	restarts   int // switch restarts applied
}

// InstallFaults arms a fault plan on the network: validates it, builds
// the runtime link/loss state, and schedules the sub-events whose
// devices this network owns. Call once, after New and before Run. A
// nil plan is a no-op. Under the sharded executor every shard installs
// the same plan; ownership gates which sub-events each one schedules.
func (n *Network) InstallFaults(p *fault.Plan, seed uint64) {
	if p == nil {
		return
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if err := p.Resolve(n.Topo); err != nil {
		panic(err)
	}
	if n.faults != nil {
		panic("device: InstallFaults called twice")
	}
	f := &faultState{plan: p, down: make([]bool, n.Topo.TotalPorts()), downAt: make([]int32, len(n.Topo.Nodes))}
	if p.Burst != nil {
		f.ge = make([]geChain, n.Topo.TotalPorts())
		for i := range f.ge {
			pt := n.Topo.Port(i)
			if !n.Owns(pt.Owner) || !p.BurstApplies(n.Topo, pt.Owner, pt.Peer) {
				continue
			}
			// Seeded from (run seed, node, port) alone — never from a
			// shared stream — so chains are identical at any shard count.
			mix := uint64(pt.Owner)<<20 | uint64(pt.Index)
			f.ge[i] = geChain{on: true, rnd: *sim.NewRand(seed ^ mix*0x9e3779b97f4a7c15)}
		}
	}
	// Every owned device the plan names is minted here: restarting a switch
	// no frame ever reached runs the same teardown and counts the same.
	for _, ev := range p.SortedEvents() {
		switch ev.Kind {
		case fault.LinkDown, fault.LinkUp:
			ends := [2]packet.NodeID{ev.Link.A, ev.Link.B}
			for i, end := range ends {
				if !n.Owns(end) {
					continue
				}
				n.mint(end)
				arg := &linkHalfArg{n: n, node: end, port: n.Topo.PortTo(end, ends[1-i]), up: ev.Kind == fault.LinkUp, primary: i == 0}
				n.Eng.AtArgPri(ev.At, linkHalfFn, arg, sim.PriFault)
			}
		case fault.SwitchRestart:
			if n.Owns(ev.Node) {
				n.mint(ev.Node)
				n.Eng.AtArgPri(ev.At, restartFn, &restartArg{n: n, id: ev.Node}, sim.PriFault)
			}
			// Neighbor nudges are their own sub-events (a neighbor may
			// live on another shard); they touch only the neighbor's
			// state, so they commute with the restart body.
			ports := n.Topo.Node(ev.Node).Ports
			for pi := range ports {
				pt := &ports[pi]
				if n.Owns(pt.Peer) {
					n.mint(pt.Peer)
					n.Eng.AtArgPri(ev.At, nudgeFn, &nudgeArg{n: n, peer: pt.Peer, port: int(pt.PeerPort)}, sim.PriFault)
				}
			}
		}
	}
	n.faults = f
}

// Route picks the egress port at node for a (src, dst) pair. Without
// faults (or with every candidate live) it is exactly Topology.ECMP; a
// downed link re-hashes the pair over the live subset, so unaffected
// pairs keep their paths and affected ones move deterministically.
// The whole path is allocation-free: the live subset is selected by a
// count-then-index scan over the shared candidate slice, never
// materialized. The per-node down count gates the scan entirely —
// while a fault is active somewhere, nodes whose own ports are all in
// service (the overwhelming majority of a large fabric) still take
// the plain-ECMP fast path, because a full live set re-hashes to the
// same port plain ECMP picks.
func (n *Network) Route(node, src, dst packet.NodeID) int {
	f := n.faults
	if f == nil || f.downPorts == 0 || f.downAt[node] == 0 {
		return n.Topo.ECMP(node, src, dst)
	}
	ports := n.Topo.NextPorts(node, dst)
	if len(ports) == 1 {
		return ports[0]
	}
	down := f.down[n.Topo.PortID(&n.Topo.Nodes[node].Ports[0]):]
	live := 0
	for _, pt := range ports {
		if !down[pt] {
			live++
		}
	}
	if live == 0 || live == len(ports) {
		// All dead (nothing better to do) or all live: plain ECMP.
		return ports[topo.PairHash(uint64(src), uint64(dst))%uint64(len(ports))]
	}
	k := topo.PairHash(uint64(src), uint64(dst)) % uint64(live)
	for _, pt := range ports {
		if down[pt] {
			continue
		}
		if k == 0 {
			return pt
		}
		k--
	}
	return ports[0] // unreachable: k < live
}

// linkDropped decides, at the end of serialization, whether the frame
// leaving via port pt is lost to a fault: a downed link swallows
// everything (control included — the wire is dead); a burst-lossy link
// advances its Gilbert–Elliott chain once per data/credit/SYN frame.
func (n *Network) linkDropped(pt *topo.Port, k packet.Kind) bool {
	f := n.faults
	id := n.Topo.PortID(pt)
	if f.down[id] {
		return true
	}
	if f.ge == nil || !f.ge[id].on || !lossyKind(k) {
		return false
	}
	g := &f.ge[id]
	ch := f.plan.Burst
	if g.bad {
		lost := ch.LossBad > 0 && g.rnd.Float64() < ch.LossBad
		if g.rnd.Float64() < ch.PBadGood {
			g.bad = false
		}
		return lost
	}
	lost := ch.LossGood > 0 && g.rnd.Float64() < ch.LossGood
	if g.rnd.Float64() < ch.PGoodBad {
		g.bad = true
	}
	return lost
}

// lossyKind is what a burst-lossy link can lose: payloads and the
// Floodgate recovery plane, not PFC/ACK control.
func lossyKind(k packet.Kind) bool {
	switch k {
	case packet.Data, packet.Credit, packet.SwitchSYN:
		return true
	}
	return false
}

// applyLinkHalf transitions one endpoint's view of a bidirectional
// link. Link-up additionally clears PFC pause state on the endpoint: a
// pause (or the resume that should have ended it) may have been lost
// with the link, and PFC state is conservative and re-derivable, so
// forgetting it cannot deadlock — at worst the peer re-pauses on the
// next threshold crossing. The Link.A half counts the transition, so
// aggregated counters match the old whole-link accounting.
func (n *Network) applyLinkHalf(a *linkHalfArg) {
	f := n.faults
	id := n.Topo.PortID(&n.Topo.Nodes[a.node].Ports[a.port])
	if f.down[id] != a.up {
		return // redundant plan event; both halves agree and skip
	}
	f.down[id] = !a.up
	down := 1
	if a.up {
		down = -1
	}
	if a.primary {
		n.linkEdge(down)
	}
	f.downPorts += down
	f.downAt[a.node] += int32(down)
	if a.up {
		n.clearPortPause(a.node, a.port)
	}
}

// clearPortPause forgets inbound PFC pause state on one endpoint of a
// restored link and restarts its transmitter.
func (n *Network) clearPortPause(id packet.NodeID, port int) {
	if n.Topo.Node(id).Kind == topo.SwitchNode {
		sw := n.Switches[id]
		sw.resumeSelf(port) // no-op when not paused; kicks otherwise
		sw.kick(port)
		return
	}
	n.HostsByID[id].clearPFC()
}

// restartSwitch models a switch losing all soft state: every queued
// frame is dropped, PFC bookkeeping is forgotten, and the flow-control
// module is reinitialized (via its Restarter hook when it has one, else
// rebuilt from the factory). Neighbors resynchronize through separate
// nudge sub-events (scheduled at install time on their own shards; see
// InstallFaults). The frame mid-serialization, if any, survives — it
// is already on the wire.
func (n *Network) restartSwitch(id packet.NodeID) {
	s := n.Switches[id]
	n.switchRestarted()

	// Forget upstream-pause bookkeeping first, so the buffer releases
	// below cannot emit PFC resumes from a half-torn-down switch, and
	// clear our own paused egresses without kicking (queues drain next).
	for _, o := range s.ports {
		if o != nil {
			o.pausedUp = false
			o.pfc.resume(n, s.node.Layer)
		}
	}
	s.pausedUpCount = 0

	// Drop everything queued; buffer and per-port accounting go with it.
	for i, o := range s.ports {
		if o == nil {
			continue
		}
		for !o.ctrl.empty() {
			p := o.ctrl.pop()
			if p.Kind == packet.Data { // NDP trimmed header: still charged
				s.release(p.Size, int(p.InPort))
				s.notePort(i, -p.Size)
			}
			n.Drop(s.node.ID, p)
		}
		data := o.queues
		for q := range data {
			for !data[q].empty() {
				p := data[q].pop()
				s.release(p.Size, int(p.InPort))
				s.notePort(i, -p.Size)
				n.Drop(s.node.ID, p)
			}
			data[q].paused = false
		}
		o.rr = 0
	}

	// Reinitialize flow control (windows, VOQs, credits, PSN channels).
	if r, ok := s.fc.(Restarter); ok {
		r.Restart()
	} else if n.Cfg.FC != nil {
		s.fc = n.Cfg.FC(s)
	}
	s.checkBuffer("restart")
}

// onPeerReset drops per-link pause state toward a restarted neighbor:
// its pause memory is gone, so a pause it sent will never be resumed
// (clear it), and a pause we sent it is no longer in effect (forget it).
func (s *Switch) onPeerReset(port int) {
	s.resumeSelf(port)
	if o := s.ports[port]; o != nil && o.pausedUp {
		o.pausedUp = false
		s.pausedUpCount--
	}
	s.kick(port)
}

// FaultStats summarizes fault-plane activity for reports and tests.
type FaultStats struct {
	LinkEvents int // link up/down transitions applied
	LinksDown  int // links currently down
	Restarts   int // switch restarts applied
	Resyncs    int // flow-control peer-restart resynchronizations
}

// FaultStats reports the fault counters (zero value without a plan).
func (n *Network) FaultStats() FaultStats {
	var fs FaultStats
	if f := n.faults; f != nil {
		fs.LinkEvents = f.linkEvents
		fs.LinksDown = f.linksDown
		fs.Restarts = f.restarts
	}
	for _, sw := range n.Switches {
		if sw == nil {
			continue
		}
		if sr, ok := sw.fc.(StallReporter); ok {
			fs.Resyncs += sr.StallReport().Resyncs
		}
	}
	return fs
}

// StallSnapshot is the structured state a stalled run is diagnosed
// with: where the bytes are stuck and what is holding them.
type StallSnapshot struct {
	DeliveredBytes    units.ByteSize // total payload delivered so far
	ExhaustedWindows  int            // Floodgate per-dst windows at < 1 MTU
	WindowDeficit     units.ByteSize // un-credited window bytes across switches
	ParkedBytes       units.ByteSize // bytes parked in VOQs
	PausedSwitchPorts int            // switch egresses held by PFC
	PausedHosts       int            // host NICs held by PFC
	LinksDown         int
}

// StallSnapshot captures the network's stall-relevant state.
func (n *Network) StallSnapshot() StallSnapshot {
	ss := StallSnapshot{DeliveredBytes: n.delivered}
	for _, sw := range n.Switches {
		if sw == nil {
			continue
		}
		for _, o := range sw.ports {
			if o != nil && o.pfc.paused {
				ss.PausedSwitchPorts++
			}
		}
		if sr, ok := sw.fc.(StallReporter); ok {
			si := sr.StallReport()
			ss.ExhaustedWindows += si.ExhaustedWindows
			ss.WindowDeficit += si.WindowDeficit
			ss.ParkedBytes += si.ParkedBytes
		}
	}
	for _, h := range n.HostsByID {
		if h != nil && h.pfc.paused {
			ss.PausedHosts++
		}
	}
	if f := n.faults; f != nil {
		ss.LinksDown = f.linksDown
	}
	return ss
}
