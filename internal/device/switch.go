//lint:hotpath transmit/deliver scheduling runs once per frame per hop

package device

import (
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// outPort is the transmit side of one switch port: a strict-priority
// control queue over QueuesPerPort round-robin data queues, and a
// busy-until transmitter. A minted switch holds one per port, most of
// which never carry a frame, so it keeps nothing the topology or the
// switch already says: the link is wire.port, the data queues are the
// switch's (Switch.data).
type outPort struct {
	ctrl    fifo
	txBytes units.ByteSize // cumulative, for INT telemetry

	// The in-flight chain toward the peer plus the single outstanding
	// transmission's release state (one packet serialises at a time, so
	// scalar fields suffice — no per-packet closure allocation).
	wire        wire
	pendSize    units.ByteSize
	pendInPort  int32
	rr          int32
	busy        bool
	pendCharged bool
}

// txDoneFn completes a switch port's serialization: free the buffer
// share and restart the transmitter.
func txDoneFn(a any) {
	o := a.(*outPort)
	s := o.wire.net.Switches[o.wire.port.Owner]
	o.busy = false
	if o.pendCharged {
		s.release(o.pendSize, int(o.pendInPort))
	}
	s.kick(int(o.wire.port.Index))
	s.checkBuffer("txDone")
}

// Switch is a shared-buffer output-queued switch with PFC, ECN and a
// flow-control module hook.
type Switch struct {
	net  *Network
	node *topo.Node
	fc   FlowControl

	// rnd drives this switch's probabilistic draws (RED marking, loss
	// injection). Seeded from (Config.Seed, node ID) rather than shared
	// network-wide, so each switch consumes an independent stream and
	// draw sequences do not depend on cross-switch event interleaving —
	// the property that keeps sharded runs bit-identical.
	rnd sim.Rand

	out     []outPort
	queues  []fifo           // data queues, QueuesPerPort per egress port: see data
	used    units.ByteSize   // shared buffer occupancy (data only)
	ingress []units.ByteSize // per ingress port occupancy (PFC accounting)

	pausedUpstream []bool // we paused the peer feeding ingress port i
	pausedUpCount  int
	pfc            []pauseClock // our egress i is paused by the peer's PFC

	portBytes []units.ByteSize // per egress port: queued + parked bytes (stats)
}

func newSwitch(n *Network, node *topo.Node) *Switch {
	sw := &Switch{
		net:            n,
		node:           node,
		fc:             nopFC{},
		rnd:            *sim.NewRand(n.Cfg.Seed ^ uint64(node.ID)*0x9e3779b97f4a7c15),
		out:            make([]outPort, len(node.Ports)),
		queues:         make([]fifo, len(node.Ports)*n.Cfg.QueuesPerPort),
		ingress:        make([]units.ByteSize, len(node.Ports)),
		pausedUpstream: make([]bool, len(node.Ports)),
		pfc:            make([]pauseClock, len(node.Ports)),
		portBytes:      make([]units.ByteSize, len(node.Ports)),
	}
	for i := range sw.out {
		sw.out[i].wire = newWire(n, &node.Ports[i])
	}
	return sw
}

// data returns egress port i's data queues.
func (s *Switch) data(i int) []fifo {
	nq := s.net.Cfg.QueuesPerPort
	return s.queues[i*nq : (i+1)*nq : (i+1)*nq]
}

// dataBytes is egress port i's data backlog.
func (s *Switch) dataBytes(i int) units.ByteSize {
	var b units.ByteSize
	data := s.data(i)
	for q := range data {
		b += data[q].size()
	}
	return b
}

// Node returns the topology node this switch realises.
func (s *Switch) Node() *topo.Node { return s.node }

// Net returns the owning network (modules use it for time and stats).
func (s *Switch) Net() *Network { return s.net }

// FC returns the attached flow-control module.
func (s *Switch) FC() FlowControl { return s.fc }

// PortFacesHost reports whether egress port i leads to an end host.
func (s *Switch) PortFacesHost(i int) bool {
	return s.net.Topo.Node(s.node.Ports[i].Peer).Kind == topo.HostNode
}

// PortFacesSwitch reports whether ingress/egress port i leads to a switch.
func (s *Switch) PortFacesSwitch(i int) bool { return !s.PortFacesHost(i) }

// receive is the ingress pipeline.
func (s *Switch) receive(p *packet.Packet, inPort int) {
	switch p.Kind {
	case packet.PFCPause:
		s.pfc[inPort].pause(s.net, s.node.Layer)
		s.net.Recycle(p)
		return
	case packet.PFCResume:
		s.resumeSelf(inPort)
		s.net.Recycle(p)
		return
	case packet.Data:
		s.receiveData(p, inPort)
		s.checkBuffer("receiveData")
		return
	}
	// Module control traffic (credits, per-queue/per-dst pauses).
	if s.fc.OnCtrl(p, inPort) {
		s.net.Recycle(p)
		return
	}
	// Transit control frame: forward toward its destination.
	out := s.net.Route(s.node.ID, p.Src, p.Dst)
	s.sendCtrl(p, out)
}

func (s *Switch) receiveData(p *packet.Packet, inPort int) {
	n := s.net
	// Shared-buffer admission.
	if s.used+p.Size > n.Cfg.BufferSize {
		n.Drop(s.node.ID, p)
		return
	}
	s.charge(p.Size, inPort)
	p.InPort = int32(inPort)
	p.ViaVOQ = false
	p.HopCount++

	// PFC threshold check after charging.
	if n.Cfg.PFC && !s.pausedUpstream[inPort] {
		free := n.Cfg.BufferSize - s.used
		if float64(s.ingress[inPort]) > pfcAlpha*float64(free) {
			s.pausedUpstream[inPort] = true
			s.pausedUpCount++
			s.sendCtrl(n.NewCtrl(packet.PFCPause, 0, s.node.ID, s.node.Ports[inPort].Peer), inPort)
		}
	}

	out := n.Route(s.node.ID, p.Src, p.Dst)

	// NDP cut-payload: when the egress backlog exceeds the trim
	// threshold, forward only the header in the priority class.
	if n.Cfg.NDP.Enable && !p.Trimmed && s.dataBytes(out) >= n.Cfg.NDP.TrimThresh {
		cut := p.Size - packet.HeaderSize
		p.Trim()
		s.release(cut, inPort) // header keeps only its own share charged
		n.trimmed()
		s.sendCtrl2(p, out) // trimmed headers ride the priority class
		return
	}

	if v := s.fc.OnIngress(p, inPort, out); !v.Consumed {
		s.enqueueData(p, out, v.Queue)
	}
}

// enqueueData places a data packet on an egress data queue, applying
// ECN marking, and kicks the transmitter. Exposed to flow-control
// modules via InjectEgress.
func (s *Switch) enqueueData(p *packet.Packet, out, queue int) {
	data := s.data(out)
	if queue >= len(data) {
		queue = len(data) - 1
	}
	if s.net.Cfg.ECN.Enable {
		s.maybeMark(p, out)
	}
	p.EnqueuedAt = s.net.Eng.Now()
	data[queue].push(p)
	s.notePort(out, p.Size)
	s.net.enqueued(s, out, p)
	s.kick(out)
}

// InjectEgress re-inserts a previously parked (Consumed) packet into
// an egress data queue. The module must have tracked the parked bytes
// with NotePortBytes; injection hands that accounting back.
func (s *Switch) InjectEgress(p *packet.Packet, out, queue int) {
	s.notePort(out, -p.Size)
	s.enqueueData(p, out, queue)
	s.checkBuffer("InjectEgress")
}

// ReleaseParked discards a parked packet, returning its buffer share.
// The module remains responsible for its own NotePortBytes accounting.
func (s *Switch) ReleaseParked(p *packet.Packet) {
	s.release(p.Size, int(p.InPort))
}

// NotePortBytes lets a module attribute parked bytes to an egress port
// for the per-port-class occupancy statistics.
func (s *Switch) NotePortBytes(out int, delta units.ByteSize) { s.notePort(out, delta) }

// maybeMark applies RED-style ECN based on the egress backlog (or the
// module's override signal, whichever is larger — §8).
func (s *Switch) maybeMark(p *packet.Packet, out int) {
	q := s.dataBytes(out)
	if sig := s.fc.QueueSignal(p, out); sig > q {
		q = sig
	}
	cfg := &s.net.Cfg.ECN
	if q < cfg.KMin {
		return
	}
	if q < cfg.KMax { // between the thresholds the mark is probabilistic
		prob := cfg.PMax * float64(q-cfg.KMin) / float64(cfg.KMax-cfg.KMin)
		if s.rnd.Float64() >= prob {
			return
		}
	}
	p.ECN = true
	s.net.marked()
}

// sendCtrl enqueues a control frame on the priority queue of a port.
func (s *Switch) sendCtrl(p *packet.Packet, out int) {
	s.out[out].ctrl.push(p)
	s.kick(out)
}

// SendCtrl lets flow-control modules emit control frames (credits,
// switchSYNs, pauses) on a port's priority queue.
func (s *Switch) SendCtrl(p *packet.Packet, out int) { s.sendCtrl(p, out) }

// sendCtrl2 is sendCtrl for frames that still carry data-buffer
// accounting (NDP trimmed headers stay charged until transmitted).
func (s *Switch) sendCtrl2(p *packet.Packet, out int) {
	p.EnqueuedAt = s.net.Eng.Now()
	s.out[out].ctrl.push(p)
	s.notePort(out, p.Size)
	s.kick(out)
}

// charge/release maintain shared-buffer and ingress accounting.
func (s *Switch) charge(b units.ByteSize, inPort int) {
	s.used += b
	s.ingress[inPort] += b
	s.net.buffered(s.node.ID, s.used)
}

func (s *Switch) release(b units.ByteSize, inPort int) {
	s.used -= b
	if inPort >= 0 {
		s.ingress[inPort] -= b
	}
	s.net.buffered(s.node.ID, s.used)
	if s.net.Cfg.PFC && s.pausedUpCount > 0 {
		s.maybeResumeUpstream()
	}
}

func (s *Switch) maybeResumeUpstream() {
	free := s.net.Cfg.BufferSize - s.used
	limit := pfcAlpha * float64(free) * pfcResume
	for i, paused := range s.pausedUpstream {
		if !paused {
			continue
		}
		if float64(s.ingress[i]) <= limit || s.ingress[i] == 0 {
			s.pausedUpstream[i] = false
			s.pausedUpCount--
			s.sendCtrl(s.net.NewCtrl(packet.PFCResume, 0, s.node.ID, s.node.Ports[i].Peer), i)
		}
	}
}

// resumeSelf lifts the peer's PFC pause of egress i, if any, and restarts
// the transmitter.
func (s *Switch) resumeSelf(i int) {
	if s.pfc[i].resume(s.net, s.node.Layer) {
		s.kick(i)
	}
}

// kick starts the transmitter of port i if idle and something is
// eligible to send.
func (s *Switch) kick(i int) {
	o := &s.out[i]
	if o.busy {
		return
	}
	p, queue := s.pick(i)
	if p == nil {
		return
	}
	s.transmit(p, i, queue)
}

// pick chooses the next frame: control strictly first; then, unless
// PFC-paused, the data queues in round-robin order (skipping paused
// queues — BFC).
func (s *Switch) pick(i int) (*packet.Packet, int) {
	o := &s.out[i]
	if !o.ctrl.empty() {
		return o.ctrl.pop(), -1
	}
	if s.pfc[i].paused {
		return nil, -1
	}
	data := s.data(i)
	nq := len(data)
	for k := 0; k < nq; k++ {
		qi := (int(o.rr) + k) % nq
		q := &data[qi]
		if q.paused || q.empty() {
			continue
		}
		o.rr = int32((qi + 1) % nq)
		return q.pop(), qi
	}
	return nil, -1
}

// PauseQueue marks a data queue paused/unpaused (BFC) and kicks.
func (s *Switch) PauseQueue(out, queue int, paused bool) {
	s.data(out)[queue].paused = paused
	if !paused {
		s.kick(out)
	}
}

// QueueBytes reports the backlog of one egress data queue.
func (s *Switch) QueueBytes(out, queue int) units.ByteSize { return s.data(out)[queue].size() }

// PortBacklog reports the summed data backlog of an egress port.
func (s *Switch) PortBacklog(out int) units.ByteSize { return s.dataBytes(out) }

// transmit serialises p on port i and schedules its arrival.
func (s *Switch) transmit(p *packet.Packet, i, queue int) {
	n := s.net
	o := &s.out[i]
	now := n.Eng.Now()
	isData := p.Kind == packet.Data // trimmed headers keep Kind Data

	// INT grows the frame after admission charged it: the buffer books
	// (port bytes, the release at txDone) keep the charged hopSize, the
	// wire and the serialization time the grown size.
	hopSize := p.Size
	if isData {
		s.fc.OnDequeue(p, i, queue)
		if n.Cfg.INT && !p.Trimmed {
			q := s.dataBytes(i)
			if sig := s.fc.QueueSignal(p, i); sig > q {
				q = sig
			}
			p.AddInt(packet.IntHop{TxBytes: o.txBytes, QLen: q, TS: now, LinkRate: o.wire.port.Rate})
		}
	}

	o.busy = true
	o.txBytes += p.Size
	n.transmitted(s, i, p, hopSize, now)

	ser := units.TxTime(p.Size, o.wire.port.Rate)
	o.pendSize = hopSize
	o.pendInPort = p.InPort
	o.pendCharged = isData
	if isData {
		s.notePort(i, -hopSize)
		// Only a data dequeue is checked here: a control frame can go out
		// from inside receiveData, while the arriving frame is charged but
		// not yet queued or parked.
		s.checkBuffer("transmit")
	}
	n.Eng.AfterArg(ser, txDoneFn, o)

	// Loss injection between switches: data and credits at LossRate,
	// credits additionally at CreditLossRate (Fig 12's isolated stress).
	if lr := s.lossRateFor(p.Kind); lr > 0 && s.PortFacesSwitch(i) && s.rnd.Float64() < lr {
		n.Drop(s.node.ID, p)
		return
	}
	// Fault plane: dead links swallow everything, burst-lossy links
	// advance their Gilbert–Elliott chain (see faults.go).
	if n.faults != nil && n.linkDropped(o.wire.port, p.Kind) {
		n.Drop(s.node.ID, p)
		return
	}
	o.wire.push(now.Add(ser+o.wire.port.Prop), p)
}

func (s *Switch) lossRateFor(k packet.Kind) float64 {
	switch k {
	case packet.Data:
		return s.net.Cfg.LossRate
	case packet.Credit, packet.SwitchSYN:
		if s.net.Cfg.CreditLossRate > s.net.Cfg.LossRate {
			return s.net.Cfg.CreditLossRate
		}
		return s.net.Cfg.LossRate
	}
	return 0
}
