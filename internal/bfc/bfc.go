// Package bfc implements the Backpressure Flow Control baseline
// (Goyal et al., NSDI '22) the paper compares against in §8/Fig 20:
// per-hop, per-flow flow control built from a limited set of physical
// egress queues. Flows hash onto queues (sticky by construction);
// when a queue's occupancy crosses the pause threshold the switch
// pauses the *upstream queue* the packet came from — so unrelated
// flows sharing that upstream queue are paused too, which is exactly
// the HOL-blocking effect Fig 20 demonstrates. BFC-ideal gives every
// flow its own queue (no collisions).
package bfc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Config parameterises BFC.
type Config struct {
	// NumQueues is the physical queue count per egress port (32/128).
	// Outside Ideal mode it must lie in [1, device.Config.QueuesPerPort];
	// a switch's module panics at construction otherwise.
	NumQueues int
	// Ideal assigns one dedicated queue per flow (requires
	// QueuesPerPort to be large enough for the flow count).
	Ideal bool
	// PauseThresh is the per-queue occupancy that triggers a pause to
	// the upstream queue; Resume at half of it.
	PauseThresh units.ByteSize
}

// New returns the per-switch factory.
func New(cfg Config) device.FCFactory {
	return func(sw *device.Switch) device.FlowControl { return newModule(cfg, sw) }
}

type upstreamRef struct {
	port int           // our port whose peer is the upstream entity
	q    int32         // upstream queue index (switches)
	flow packet.FlowID // upstream flow when the upstream is a host (per-flow queues); 0 otherwise
}

type queueKey struct {
	port, q int
}

type module struct {
	cfg Config
	sw  *device.Switch

	// Ideal mode: per-port flow → dedicated queue assignment.
	flowQ []map[packet.FlowID]int // per port: flow -> queue
	nextQ []int                   // per port: naive allocator cursor

	// pausedBy[k] lists upstream queues paused on behalf of local queue k.
	pausedBy map[queueKey][]upstreamRef
}

func newModule(cfg Config, sw *device.Switch) *module {
	if qpp := sw.Net().Cfg.QueuesPerPort; !cfg.Ideal && (cfg.NumQueues < 1 || cfg.NumQueues > qpp) {
		panic(fmt.Sprintf("bfc: NumQueues %d outside [1, QueuesPerPort %d]", cfg.NumQueues, qpp))
	}
	nPorts := len(sw.Node().Ports)
	m := &module{
		cfg:      cfg,
		sw:       sw,
		flowQ:    make([]map[packet.FlowID]int, nPorts),
		nextQ:    make([]int, nPorts),
		pausedBy: make(map[queueKey][]upstreamRef),
	}
	for i := range m.flowQ {
		m.flowQ[i] = make(map[packet.FlowID]int)
	}
	return m
}

// queueFor picks the egress queue for a flow at a port.
func (m *module) queueFor(f packet.FlowID, port int) int {
	if !m.cfg.Ideal {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(f))
		return int(crc32.ChecksumIEEE(b[:])) % m.cfg.NumQueues
	}
	if q, ok := m.flowQ[port][f]; ok {
		return q
	}
	q := m.nextQ[port]
	m.nextQ[port] = (q + 1) % m.numIdealQueues()
	m.flowQ[port][f] = q
	return q
}

func (m *module) numIdealQueues() int {
	// In ideal mode the device was configured with a large pool; use it
	// all (collisions only if the experiment under-provisioned).
	return m.sw.Net().Cfg.QueuesPerPort
}

// OnIngress assigns the packet a queue and pauses the upstream queue
// when the local one crosses the threshold.
func (m *module) OnIngress(p *packet.Packet, inPort, outPort int) device.Verdict {
	q := m.queueFor(p.Flow, outPort)
	upQ := p.UpstreamQ
	p.UpstreamQ = int32(q) // the next hop pauses this queue
	// After this packet enqueues, the occupancy will be current + size.
	if m.sw.QueueBytes(outPort, q)+p.Size > m.cfg.PauseThresh {
		m.pauseUpstream(p, inPort, upQ, outPort, q)
	}
	return device.Verdict{Queue: q}
}

// pauseUpstream sends the pause for the upstream queue feeding us.
func (m *module) pauseUpstream(p *packet.Packet, inPort int, upQ int32, outPort, q int) {
	k := queueKey{outPort, q}
	n := m.sw.Net()
	ref := upstreamRef{port: inPort, q: upQ}
	if m.sw.PortFacesHost(inPort) {
		// Hosts expose per-flow queues: pause the flow itself.
		ref.flow = p.Flow
	}
	for _, r := range m.pausedBy[k] {
		if r == ref {
			return // already paused on behalf of this queue
		}
	}
	m.pausedBy[k] = append(m.pausedBy[k], ref)
	f := n.NewCtrl(packet.BFCPause, ref.flow, m.sw.Node().ID, m.sw.Node().Ports[inPort].Peer)
	f.PauseQ = ref.q
	m.sw.SendCtrl(f, inPort)
}

// OnCtrl reacts to pause/resume from the downstream switch: gate the
// named queue on the port the frame arrived on.
func (m *module) OnCtrl(p *packet.Packet, inPort int) bool {
	switch p.Kind {
	case packet.BFCPause:
		if p.PauseQ >= 0 {
			m.sw.PauseQueue(inPort, int(p.PauseQ), true)
		}
		return true
	case packet.BFCResume:
		if p.PauseQ >= 0 {
			m.sw.PauseQueue(inPort, int(p.PauseQ), false)
		}
		return true
	}
	return false
}

// OnDequeue resumes upstream queues once the local queue drains below
// half the pause threshold.
func (m *module) OnDequeue(p *packet.Packet, outPort, queue int) {
	if queue < 0 {
		return
	}
	k := queueKey{outPort, queue}
	refs := m.pausedBy[k]
	if len(refs) == 0 {
		return
	}
	if m.sw.QueueBytes(outPort, queue) > m.cfg.PauseThresh/2 {
		return
	}
	n := m.sw.Net()
	for _, r := range refs {
		f := n.NewCtrl(packet.BFCResume, r.flow, m.sw.Node().ID, m.sw.Node().Ports[r.port].Peer)
		f.PauseQ = r.q
		m.sw.SendCtrl(f, r.port)
	}
	delete(m.pausedBy, k)
}

// QueueSignal uses the default egress backlog.
func (m *module) QueueSignal(*packet.Packet, int) units.ByteSize { return -1 }
