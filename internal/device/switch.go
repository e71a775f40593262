//lint:hotpath transmit/deliver scheduling runs once per frame per hop

package device

import (
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// swPort is everything a switch keeps about one of its ports: the
// transmit side (a strict-priority control queue over round-robin data
// queues, a busy-until transmitter and the in-flight chain toward the
// peer) and the ingress side's PFC books. A switch mints one the first
// time anything writes the port (Switch.port); most ports of a big
// fabric never carry a frame and stay nil, and a read of a nil port is
// a read of zeros. The link is wire.port and the switch
// wire.net.Switches[wire.port.Owner]. It fits the 256-byte allocation
// size class (TestSwPortSize).
type swPort struct {
	ctrl fifo
	// queues are the egress data queues: a window of q0, or BFC's
	// QueuesPerPort in a slice of their own.
	queues []fifo
	q0     [1]fifo

	// The in-flight chain toward the peer plus the single outstanding
	// transmission's release state (one packet serialises at a time, so
	// scalar fields suffice — no per-packet closure allocation).
	wire     wire
	txBytes  units.ByteSize // cumulative, for INT telemetry
	pendSize units.ByteSize

	ingress units.ByteSize // ingress occupancy (PFC accounting)
	bytes   units.ByteSize // egress queued + parked bytes (stats)
	pfc     pauseClock     // our egress is paused by the peer's PFC

	pendInPort  int32
	rr          int32
	busy        bool
	pendCharged bool
	pausedUp    bool // we paused the peer feeding this ingress
}

// txDoneFn completes a switch port's serialization: free the buffer
// share and restart the transmitter.
func txDoneFn(a any) {
	o := a.(*swPort)
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

	ports         []*swPort      // by port index, minted on first write (port)
	used          units.ByteSize // shared buffer occupancy (data only)
	pausedUpCount int            // ports whose pausedUp is set
}

func newSwitch(n *Network, node *topo.Node) *Switch {
	return &Switch{
		net:   n,
		node:  node,
		fc:    nopFC{},
		rnd:   *sim.NewRand(n.Cfg.Seed ^ uint64(node.ID)*0x9e3779b97f4a7c15),
		ports: make([]*swPort, len(node.Ports)),
	}
}

// port returns port i's record, minting it on first use. Every write to
// a port goes through here; a read takes s.ports[i] and treats nil as a
// port that never carried a frame.
func (s *Switch) port(i int) *swPort {
	if o := s.ports[i]; o != nil {
		return o
	}
	return s.mintPort(i)
}

func (s *Switch) mintPort(i int) *swPort {
	o := &swPort{wire: newWire(s.net, &s.node.Ports[i])}
	if nq := s.net.Cfg.QueuesPerPort; nq > 1 {
		o.queues = make([]fifo, nq)
	} else {
		o.queues = o.q0[:]
	}
	s.ports[i] = o
	return o
}

// dataBytes is egress port i's data backlog.
func (s *Switch) dataBytes(i int) units.ByteSize {
	o := s.ports[i]
	if o == nil {
		return 0
	}
	var b units.ByteSize
	for q := range o.queues {
		b += o.queues[q].size()
	}
	return b
}

// Node returns the topology node this switch realises.
func (s *Switch) Node() *topo.Node { return s.node }

// Net returns the owning network (modules use it for time and stats).
func (s *Switch) Net() *Network { return s.net }

// FC returns the attached flow-control module.
func (s *Switch) FC() FlowControl { return s.fc }

// PortMinted reports whether port i holds a record: whether anything
// ever wrote it (tests and footprint probes).
func (s *Switch) PortMinted(i int) bool { return s.ports[i] != nil }

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
		s.port(inPort).pfc.pause(s.net, s.node.Layer)
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
	s.Charge(p, inPort)
	in := s.ports[inPort]
	p.ViaVOQ = false

	// PFC threshold check after charging.
	if n.Cfg.PFC && !in.pausedUp {
		free := n.Cfg.BufferSize - s.used
		if float64(in.ingress) > pfcAlpha*float64(free) {
			in.pausedUp = true
			s.pausedUpCount++
			s.sendCtrl(n.NewCtrl(packet.PFCPause, 0, s.node.ID, s.node.Ports[inPort].Peer), inPort)
		}
	}

	out := n.Route(s.node.ID, p.Src, p.Dst)

	// NDP cut-payload: when the egress backlog exceeds the trim
	// threshold, forward only the header in the priority class.
	if n.Cfg.NDP && !p.Trimmed && s.dataBytes(out) >= ndpTrimThresh {
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
	data := s.port(out).queues
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
		prob := ecnPMax * float64(q-cfg.KMin) / float64(cfg.KMax-cfg.KMin)
		if s.rnd.Float64() >= prob {
			return
		}
	}
	p.ECN = true
	s.net.marked()
}

// sendCtrl enqueues a control frame on the priority queue of a port.
func (s *Switch) sendCtrl(p *packet.Packet, out int) {
	s.port(out).ctrl.push(p)
	s.kick(out)
}

// SendCtrl lets flow-control modules emit control frames (credits,
// switchSYNs, pauses) on a port's priority queue.
func (s *Switch) SendCtrl(p *packet.Packet, out int) { s.sendCtrl(p, out) }

// sendCtrl2 is sendCtrl for frames that still carry data-buffer
// accounting (NDP trimmed headers stay charged until transmitted).
func (s *Switch) sendCtrl2(p *packet.Packet, out int) {
	p.EnqueuedAt = s.net.Eng.Now()
	s.port(out).ctrl.push(p)
	s.notePort(out, p.Size)
	s.kick(out)
}

// Charge admits p to the shared buffer through ingress port in, as
// receiveData does every data frame; txDone or ReleaseParked gives it back.
func (s *Switch) Charge(p *packet.Packet, in int) {
	s.used += p.Size
	s.port(in).ingress += p.Size
	p.InPort = int32(in)
	s.net.buffered(s.node.ID, s.used)
}

// Buffered is the switch's shared-buffer occupancy.
func (s *Switch) Buffered() units.ByteSize { return s.used }

func (s *Switch) release(b units.ByteSize, inPort int) {
	s.used -= b
	if inPort >= 0 {
		s.port(inPort).ingress -= b
	}
	s.checkRelease(inPort)
	s.net.buffered(s.node.ID, s.used)
	if s.net.Cfg.PFC && s.pausedUpCount > 0 {
		s.maybeResumeUpstream()
	}
}

func (s *Switch) maybeResumeUpstream() {
	free := s.net.Cfg.BufferSize - s.used
	limit := pfcAlpha * float64(free) * pfcResume
	for i, o := range s.ports {
		if o == nil || !o.pausedUp {
			continue
		}
		if float64(o.ingress) <= limit || o.ingress == 0 {
			o.pausedUp = false
			s.pausedUpCount--
			s.sendCtrl(s.net.NewCtrl(packet.PFCResume, 0, s.node.ID, s.node.Ports[i].Peer), i)
		}
	}
}

// resumeSelf lifts the peer's PFC pause of egress i, if any, and restarts
// the transmitter. A port never minted was never paused.
func (s *Switch) resumeSelf(i int) {
	if o := s.ports[i]; o != nil && o.pfc.resume(s.net, s.node.Layer) {
		s.kick(i)
	}
}

// kick starts the transmitter of port i if idle and something is
// eligible to send.
func (s *Switch) kick(i int) {
	o := s.ports[i]
	if o == nil || o.busy {
		return
	}
	p, queue := o.pick()
	if p == nil {
		return
	}
	s.transmit(o, p, i, queue)
}

// pick chooses the next frame: control strictly first; then, unless
// PFC-paused, the data queues in round-robin order (skipping paused
// queues — BFC).
func (o *swPort) pick() (*packet.Packet, int) {
	if !o.ctrl.empty() {
		return o.ctrl.pop(), -1
	}
	if o.pfc.paused {
		return nil, -1
	}
	data := o.queues
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
	s.port(out).queues[queue].paused = paused
	if !paused {
		s.kick(out)
	}
}

// QueueBytes reports the backlog of one egress data queue.
func (s *Switch) QueueBytes(out, queue int) units.ByteSize {
	if o := s.ports[out]; o != nil {
		return o.queues[queue].size()
	}
	return 0
}

// PortBacklog reports the summed data backlog of an egress port.
func (s *Switch) PortBacklog(out int) units.ByteSize { return s.dataBytes(out) }

// transmit serialises p on port i, whose record is o, and schedules its
// arrival.
func (s *Switch) transmit(o *swPort, p *packet.Packet, i, queue int) {
	n := s.net
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

	// Credit loss between switches (Fig 12's isolated stress).
	if cl := n.Cfg.CreditLossRate; cl > 0 && (p.Kind == packet.Credit || p.Kind == packet.SwitchSYN) &&
		s.PortFacesSwitch(i) && s.rnd.Float64() < cl {
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
