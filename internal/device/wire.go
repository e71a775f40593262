//lint:hotpath wire chain push/deliver runs once per frame per hop

package device

import (
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// wire is the in-flight frame chain of one link direction. A busy-until
// transmitter starts frames in strictly increasing time and the
// propagation delay is constant per link, so arrivals are FIFO: instead
// of one engine event per frame in flight (up to prop/serialization
// frames per port, each weighing on the scheduler), the chain keeps a
// ring of (arrival, frame) pairs served by a single armed engine timer
// that delivers the head and re-arms for the next.
//
// Frames dropped at transmit time (loss injection, dead links) never
// enter the chain, and a switch restart leaves it untouched — frames
// already on the wire survive, matching the old per-frame semantics.
type wire struct {
	net      *Network
	peer     packet.NodeID
	peerPort int

	// pri is the link's engine priority (sim.WirePri of its global
	// directed-port index): every directed link delivers under its own
	// same-timestamp priority, so equal-time deliveries on different
	// links order identically at any shard count.
	pri sim.Pri

	// staged, when non-nil, marks the peer as living on another shard:
	// pushes divert into the cross-shard mailbox instead of arming a
	// local timer (see cluster.go).
	staged *xlink

	buf   []wireEnt
	head  int
	count int
}

type wireEnt struct {
	at units.Time
	p  *packet.Packet
}

func (w *wire) init(n *Network, peer packet.NodeID, peerPort int, pri sim.Pri) {
	w.net = n
	w.peer = peer
	w.peerPort = peerPort
	w.pri = pri
}

// wireDeliverFn delivers the chain head. Re-arming happens before the
// delivery: receiving a frame can synchronously start a transmission,
// and a push onto a chain that already holds frames must find the
// timer armed.
func wireDeliverFn(a any) {
	w := a.(*wire)
	p := w.pop()
	if w.count > 0 {
		w.net.Eng.AtArgPri(w.buf[w.head].at, wireDeliverFn, w, w.pri)
	}
	w.net.deliver(w.peer, p, w.peerPort)
}

// push appends a frame arriving at `at` (≥ every arrival already
// queued), arming the delivery timer if the chain was idle. A wire
// whose peer lives on another shard stages instead: the frame is
// handed to the peer shard's mirror chain at the next barrier.
func (w *wire) push(at units.Time, p *packet.Packet) {
	if w.staged != nil {
		w.staged.pend = append(w.staged.pend, wireEnt{at, p})
		return
	}
	if w.count == 0 {
		w.net.Eng.AtArgPri(at, wireDeliverFn, w, w.pri)
	}
	if w.count == len(w.buf) {
		w.grow()
	}
	w.buf[(w.head+w.count)&(len(w.buf)-1)] = wireEnt{at, p}
	w.count++
}

func (w *wire) pop() *packet.Packet {
	ent := w.buf[w.head]
	w.buf[w.head] = wireEnt{} // drop the frame reference (pool hygiene)
	w.head = (w.head + 1) & (len(w.buf) - 1)
	w.count--
	return ent.p
}

// grow doubles the power-of-two ring (same policy as fifo).
func (w *wire) grow() {
	n := len(w.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]wireEnt, n)
	for i := 0; i < w.count; i++ {
		nb[i] = w.buf[(w.head+i)&(len(w.buf)-1)]
	}
	w.buf = nb
	w.head = 0
}
