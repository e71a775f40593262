// Package pfctag implements the paper's "PFC w/ tag" derivative
// (Appendix B): reactive per-destination pause. When the last-hop
// ToR's egress queue toward a host exceeds a threshold, it sends a
// pause frame *tagged with that destination* to the upstream switch;
// the upstream parks subsequent packets for that destination in a
// VOQ, cascading further pauses (ultimately per-dst pausing source
// hosts) if its own VOQ fills. Unlike Floodgate it keeps no in-flight
// accounting — it is reactive, with a longer control loop, so it needs
// smaller thresholds and uses far more VOQs.
package pfctag

import (
	"slices"

	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Config parameterises PFC w/ tag.
type Config struct {
	// PauseThresh triggers a tagged pause when the egress backlog (last
	// hop) or per-dst VOQ (transit) exceeds it; the pause lifts at half
	// of it. The cascade's last level pauses the source hosts with
	// dstPause frames, which every host honours.
	PauseThresh units.ByteSize
}

// DefaultConfig returns a small, reaction-friendly binding.
func DefaultConfig(oneHopBDP units.ByteSize) Config {
	return Config{PauseThresh: oneHopBDP}
}

// New returns the per-switch factory.
func New(cfg Config) device.FCFactory {
	return func(sw *device.Switch) device.FlowControl { return newModule(cfg, sw) }
}

type dstState struct {
	paused    bool // downstream told us to hold this destination
	q         []parked
	bytes     units.ByteSize
	upstreams map[int]bool           // switch ingress ports we paused
	hosts     map[packet.NodeID]bool // hosts we paused (first hop)
}

// parked is one VOQ entry: the packet plus the egress port its bytes
// are attributed to (a link fault may reroute it by drain time).
type parked struct {
	p   *packet.Packet
	out int
}

type module struct {
	cfg  Config
	sw   *device.Switch
	dsts map[packet.NodeID]*dstState
	voqs int // destinations currently holding parked packets
}

func newModule(cfg Config, sw *device.Switch) *module {
	return &module{cfg: cfg, sw: sw, dsts: make(map[packet.NodeID]*dstState)}
}

func (m *module) state(d packet.NodeID) *dstState {
	s, ok := m.dsts[d]
	if !ok {
		s = &dstState{upstreams: make(map[int]bool), hosts: make(map[packet.NodeID]bool)}
		m.dsts[d] = s
	}
	return s
}

// OnIngress parks packets for paused destinations; at the last hop it
// originates tagged pauses when the egress queue builds.
func (m *module) OnIngress(p *packet.Packet, inPort, outPort int) device.Verdict {
	st := m.state(p.Dst)
	if st.paused {
		m.park(st, p, outPort)
		m.maybeCascade(st, p, inPort)
		return device.Verdict{Consumed: true}
	}
	if m.sw.PortFacesHost(outPort) {
		// Last hop: detect incast from the egress backlog.
		if m.sw.PortBacklog(outPort)+p.Size > m.cfg.PauseThresh {
			m.pauseUpstreamFor(p.Dst, inPort, p)
		}
	}
	return device.Verdict{}
}

// park stores the packet in the per-dst VOQ.
func (m *module) park(st *dstState, p *packet.Packet, outPort int) {
	if st.bytes == 0 {
		m.voqs++
		m.sw.Net().VOQs(0, m.voqs)
	}
	p.ViaVOQ = true
	p.EnqueuedAt = m.sw.Net().Eng.Now()
	st.q = append(st.q, parked{p, outPort})
	st.bytes += p.Size
	m.sw.NotePortBytes(outPort, p.Size)
}

// maybeCascade propagates the pause one level up when our own VOQ for
// the destination fills.
func (m *module) maybeCascade(st *dstState, p *packet.Packet, inPort int) {
	if st.bytes <= m.cfg.PauseThresh {
		return
	}
	m.pauseUpstreamFor(p.Dst, inPort, p)
}

// pauseUpstreamFor emits the tagged pause toward whoever fed us.
func (m *module) pauseUpstreamFor(dst packet.NodeID, inPort int, p *packet.Packet) {
	st := m.state(dst)
	n := m.sw.Net()
	if m.sw.PortFacesHost(inPort) {
		src := m.sw.Node().Ports[inPort].Peer
		if st.hosts[src] {
			return
		}
		st.hosts[src] = true
		f := n.NewCtrl(packet.DstPause, 0, m.sw.Node().ID, src)
		f.PauseDst = dst
		m.sw.SendCtrl(f, inPort)
		return
	}
	if st.upstreams[inPort] {
		return
	}
	st.upstreams[inPort] = true
	f := n.NewCtrl(packet.TagPause, 0, m.sw.Node().ID, m.sw.Node().Ports[inPort].Peer)
	f.PauseDst = dst
	m.sw.SendCtrl(f, inPort)
}

// OnCtrl applies tagged pause/resume from the downstream switch.
func (m *module) OnCtrl(p *packet.Packet, inPort int) bool {
	switch p.Kind {
	case packet.TagPause:
		m.state(p.PauseDst).paused = true
		return true
	case packet.TagResume:
		st := m.state(p.PauseDst)
		st.paused = false
		m.drain(st, p.PauseDst)
		return true
	}
	return false
}

// drain releases every parked packet for the destination (reactive:
// no window gating) and resumes our own upstreams.
func (m *module) drain(st *dstState, dst packet.NodeID) {
	net := m.sw.Net()
	for _, e := range st.q {
		p := e.p
		out := net.Route(m.sw.Node().ID, p.Src, p.Dst)
		st.bytes -= p.Size
		if e.out != out { // rerouted while parked: move the attribution
			m.sw.NotePortBytes(e.out, -p.Size)
			m.sw.NotePortBytes(out, p.Size)
		}
		m.sw.InjectEgress(p, out, 0)
	}
	if len(st.q) > 0 {
		st.q = nil
		m.voqs--
	}
	m.resumeUpstreams(st, dst)
}

// OnDequeue watches last-hop egress queues to lift pauses once they
// drain, and transit VOQ levels to lift cascaded pauses.
func (m *module) OnDequeue(p *packet.Packet, outPort, queue int) {
	st, ok := m.dsts[p.Dst]
	if !ok {
		return
	}
	if m.sw.PortFacesHost(outPort) {
		if m.sw.PortBacklog(outPort) <= m.cfg.PauseThresh/2 {
			m.resumeUpstreams(st, p.Dst)
		}
		return
	}
	if st.bytes <= m.cfg.PauseThresh/2 {
		m.resumeUpstreams(st, p.Dst)
	}
}

// resumeUpstreams emits tagged resumes (and host resumes) for a dst.
func (m *module) resumeUpstreams(st *dstState, dst packet.NodeID) {
	n := m.sw.Net()
	node := m.sw.Node()
	// Walk ports in index order so runs stay deterministic.
	for port := range node.Ports {
		if st.upstreams[port] {
			f := n.NewCtrl(packet.TagResume, 0, node.ID, node.Ports[port].Peer)
			f.PauseDst = dst
			m.sw.SendCtrl(f, port)
			delete(st.upstreams, port)
		}
		if peer := node.Ports[port].Peer; st.hosts[peer] {
			f := n.NewCtrl(packet.DstResume, 0, node.ID, peer)
			f.PauseDst = dst
			m.sw.SendCtrl(f, port)
			delete(st.hosts, peer)
		}
	}
}

// QueueSignal reports VOQ residency for parked packets (same §8
// convention as Floodgate).
func (m *module) QueueSignal(p *packet.Packet, outPort int) units.ByteSize {
	if !p.ViaVOQ {
		return -1
	}
	var sum units.ByteSize
	//lint:allow maprange order-independent sum of parked bytes
	for _, st := range m.dsts {
		sum += st.bytes
	}
	return sum + m.sw.PortBacklog(outPort)
}

// Restart implements device.Restarter: parked packets die with the
// switch (their port attribution and buffer share returned, each counted
// as a drop, in destination order) and every destination's pause state
// is forgotten, as in a freshly built module.
func (m *module) Restart() {
	dsts := make([]packet.NodeID, 0, len(m.dsts))
	for d := range m.dsts { //lint:allow maprange keys are sorted before use
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	node := m.sw.Node().ID
	for _, d := range dsts {
		for _, e := range m.dsts[d].q {
			m.sw.NotePortBytes(e.out, -e.p.Size)
			m.sw.ReleaseParked(e.p)
			m.sw.Net().Drop(node, e.p)
		}
	}
	clear(m.dsts)
	m.voqs = 0
}
