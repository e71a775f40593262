//lint:hotpath NIC serialization, pacing and RTO timers fire per segment

package device

import (
	"fmt"
	"slices"

	"floodgate/internal/cc"
	"floodgate/internal/forensics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// MSS is the maximum payload per data segment.
const MSS = packet.MTU - packet.HeaderSize

// Flow is one transfer from Src to Dst. The same object carries sender
// state (at the source host) and receiver state (at the destination
// host); the simulator is single-threaded so sharing is safe. Objects
// live from Network.mintFlow to Host.release and are then recycled, so
// a pointer may be kept only to a flow the caller was handed (held).
// Words come first, then 32-bit fields, then the flags, so the struct
// carries no padding (TestFlowSize: at most 160 bytes).
type Flow struct {
	ID    packet.FlowID
	Size  units.ByteSize
	Start units.Time

	net  *Network
	ctrl cc.Controller

	// snext/sprev link the flow into its source host's sender list from
	// start to release.
	snext, sprev *Flow

	// Sender state.
	sndNxt, sndUna units.ByteSize
	maxSent        units.ByteSize // highest sndNxt reached (go-back-N rtx detection)
	nextSend       units.Time
	lastProgress   units.Time // last cumulative-ACK advance (lazy RTO)

	// Receiver state.
	rcvNxt  units.ByteSize
	lastCNP units.Time
	Finish  units.Time

	// ndp is the NDP sender and receiver state, minted only when NDP is
	// on (nil otherwise).
	ndp *ndpState

	Src packet.NodeID
	Dst packet.NodeID

	// Attempt stamps application-plane flows with their attempt number
	// (1 = the original request, 2+ = retries/hedges) so forensics and
	// trace can attribute retry amplification causally. Open-loop flows
	// carry 0.
	Attempt int32

	rtoSeq int32 // 1 + its index in the host's timeout queue; 0 if absent

	dbg flowDebug // simdebug lifecycle stamp (empty without the tag)

	Cat packet.Category

	// held marks a caller-owned flow (Network.AddFlow, AddAppFlow): minted
	// at registration and never recycled.
	held bool

	// manual marks a deferred (application-launched) flow: the per-shard
	// injection chains skip it and Network.Launch starts it at runtime.
	// launched guards against double launches and lets reporting skip
	// attempt flows that never fired.
	manual   bool
	launched bool

	senderDone bool
	queued     bool // in (or owed to) the host send queue
	cnpSent    bool
	done       bool
}

// ndpState is a flow's NDP state: trimmed segments to resend and the
// pull credit to send them (sender), segments seen and pulls owed
// (receiver).
type ndpState struct {
	rtxQ        []units.ByteSize
	seen        map[units.ByteSize]bool
	pullCredits int
	rcvdBytes   units.ByteSize
	pullsSent   int
	trims       int
}

// Done reports whether the last byte was delivered.
func (f *Flow) Done() bool { return f.done }

// FCT returns the completion time (valid once Done).
func (f *Flow) FCT() units.Duration { return f.Finish.Sub(f.Start) }

// Controller exposes the flow's congestion controller (for tests).
func (f *Flow) Controller() cc.Controller { return f.ctrl }

// totalPkts is the number of full-payload sends the flow needs.
func (f *Flow) totalPkts() int { return int((f.Size + MSS - 1) / MSS) }

func (f *Flow) inflight() units.ByteSize { return f.sndNxt - f.sndUna }

// Host is an end station: one NIC port, paced sender flows, receiver
// logic generating ACKs/CNPs (and NDP NACKs/pulls), and per-dst pause
// state for Floodgate's optional host support.
type Host struct {
	net  *Network
	node *topo.Node
	port *topo.Port

	ctrlQ fifo
	busy  bool

	// sendq holds flows believed sendable right now (round-robin by
	// rotation); blocked flows leave the queue and are re-enqueued by
	// the event that unblocks them (ACK frees window, pace timer
	// expires, pause lifts). This keeps the NIC scheduler O(1) per
	// packet regardless of how many flows are outstanding.
	sendq     []flowRef
	sendqHead int
	// senders/sendersTail is the intrusive list (Flow.snext/sprev) of
	// started flows not yet released, in start order (pause-resume scans).
	senders, sendersTail *Flow

	// rtoQ is a FIFO of flows with a pending retransmission timeout;
	// one engine timer serves the head. Deadlines are re-derived from
	// lastProgress when a flow surfaces, so ACK progress costs nothing.
	// A flow whose progress advanced re-queues instead of firing; this
	// can delay an individual flow's timeout by up to one RTO, which is
	// harmless for a coarse go-back-N timer. A released flow leaves its
	// entry behind as a tombstone (the zero flowRef) that pops when it
	// surfaces, as the finished sender would have; stepping aside early
	// would re-arm the timer for, and so re-time, the flows behind it.
	// A full queue reclaims popped slots and tombstones (compactRTO), so
	// live senders size it, not every flow the host ever sent.
	rtoQ     []flowRef
	rtoHead  int
	rtoTimer sim.Handle

	pfc pauseClock // the ToR's PFC pause of this NIC

	// Per-destination (Floodgate, PFC w/ tag) and per-flow (BFC NIC-queue)
	// pauses, allocated on the first pause: few hosts ever see one.
	pausedDst   map[packet.NodeID]bool
	pausedFlows map[packet.FlowID]bool

	// NDP pull pacing.
	pullQ    []packet.FlowID
	pullBusy bool

	// The in-flight chain toward the ToR (see wire.go).
	wire wire
}

// hostTxDoneFn completes the NIC serialization.
func hostTxDoneFn(a any) {
	h := a.(*Host)
	h.busy = false
	h.kick()
}

// flowWakeFn fires a flow's pacing timer: the flow becomes sendable.
func flowWakeFn(a any) {
	f := a.(flowRef).take("flowWakeFn")
	f.queued = false
	h := f.net.HostsByID[f.Src]
	h.enqueue(f)
	if f.senderDone {
		h.release(f) // fully acked while the timer was pending
	}
	h.kick()
}

// hostPullFn continues the NDP pull pacer.
func hostPullFn(a any) {
	h := a.(*Host)
	h.pullBusy = false
	h.pacePulls()
}

// hostRTOFn services the host's retransmission-timeout queue.
func hostRTOFn(a any) { a.(*Host).serviceRTO() }

func newHost(n *Network, node *topo.Node) *Host {
	if len(node.Ports) != 1 {
		panic("device: hosts must have exactly one port")
	}
	// From the shard's own slab: registration order interleaves the shards,
	// and their hosts must not share cache lines (see NewCluster).
	if len(n.hostSlab) == 0 {
		n.hostSlab = make([]Host, 64)
	}
	h := &n.hostSlab[0]
	n.hostSlab = n.hostSlab[1:]
	h.net, h.node, h.port = n, node, &node.Ports[0]
	h.wire = newWire(n, h.port)
	return h
}

// ID returns the host's node id.
func (h *Host) ID() packet.NodeID { return h.node.ID }

// startFlow registers a new sender flow and kicks the NIC.
func (h *Host) startFlow(f *Flow) {
	f.sprev = h.sendersTail
	if f.sprev != nil {
		f.sprev.snext = f
	} else {
		h.senders = f
	}
	h.sendersTail = f
	h.enqueue(f)
	h.kick()
}

// release retires a sender that is fully acked and referenced by neither
// the send queue nor a wake timer: it leaves the sender list and —
// unless a caller holds it — its rtoQ entry becomes a tombstone, its
// live slot empties (recycling the slot's page if it was the page's last
// flow) and the object returns to the pool. Late control frames then
// find no flow, which is how a finished sender treats them.
func (h *Host) release(f *Flow) {
	if f.sprev != nil {
		f.sprev.snext = f.snext
	} else {
		h.senders = f.snext
	}
	if f.snext != nil {
		f.snext.sprev = f.sprev
	} else {
		h.sendersTail = f.sprev
	}
	f.snext, f.sprev = nil, nil
	if f.held {
		return
	}
	if f.rtoSeq > 0 {
		h.rtoQ[f.rtoSeq-1] = flowRef{}
	}
	h.net.live.remove(f.ID)
	f.poolReleased()
	f.snext = h.net.flowPool
	h.net.flowPool = f
}

// wantsSend reports whether the flow has anything left to emit.
func (f *Flow) wantsSend() bool {
	if f.senderDone {
		return false
	}
	if f.ndp != nil && len(f.ndp.rtxQ) > 0 {
		return true
	}
	return f.sndNxt < f.Size
}

// enqueue adds a flow to the send queue unless it is already there
// (or owed to it via a pending pace timer).
func (h *Host) enqueue(f *Flow) {
	if f.queued || !f.wantsSend() {
		return
	}
	f.queued = true
	h.sendq = append(h.sendq, refOf(f))
	h.net.sendState(h, f, forensics.SendSendable)
}

// popSendq removes the next queued flow, compacting lazily.
func (h *Host) popSendq() *Flow {
	if h.sendqHead >= len(h.sendq) {
		return nil
	}
	f := h.sendq[h.sendqHead].take("popSendq")
	h.sendq[h.sendqHead] = flowRef{}
	h.sendqHead++
	if h.sendqHead > 64 && h.sendqHead*2 >= len(h.sendq) {
		n := copy(h.sendq, h.sendq[h.sendqHead:])
		clear(h.sendq[n:])
		h.sendq = h.sendq[:n]
		h.sendqHead = 0
	}
	return f
}

// ---- Receive paths ----

func (h *Host) receive(p *packet.Packet) {
	now := h.net.Eng.Now()
	switch p.Kind {
	case packet.PFCPause:
		h.pfc.pause(h.net, topo.LayerHost)
	case packet.PFCResume:
		h.clearPFC()
	case packet.DstPause:
		if !h.pausedDst[p.PauseDst] {
			if h.pausedDst == nil {
				h.pausedDst = make(map[packet.NodeID]bool)
			}
			h.pausedDst[p.PauseDst] = true
			h.net.hostHolds(1, 0)
		}
	case packet.DstResume:
		if h.pausedDst[p.PauseDst] {
			delete(h.pausedDst, p.PauseDst)
			h.net.hostHolds(-1, 0)
		}
		h.wakeDst(p.PauseDst)
	case packet.BFCPause:
		if !h.pausedFlows[p.Flow] {
			if h.pausedFlows == nil {
				h.pausedFlows = make(map[packet.FlowID]bool)
			}
			h.pausedFlows[p.Flow] = true
			h.net.hostHolds(0, 1)
		}
	case packet.BFCResume:
		if h.pausedFlows[p.Flow] {
			delete(h.pausedFlows, p.Flow)
			h.net.hostHolds(0, -1)
		}
		if f := h.net.flow(p.Flow); f != nil {
			h.enqueue(f)
		}
		h.kick()
	case packet.Data:
		h.receiveData(p, now)
	case packet.Ack:
		h.receiveAck(p, now)
	case packet.CNP:
		if f := h.net.flow(p.Flow); f != nil {
			f.ctrl.OnCNP(now)
		}
	case packet.Nack:
		h.receiveNack(p)
	case packet.Pull:
		if f := h.net.flow(p.Flow); f != nil && !f.senderDone {
			f.ndp.pullCredits++
			h.enqueue(f)
			h.kick()
		}
	}
	// Every frame terminates here; return it to the pool.
	h.net.Recycle(p)
}

// wakeDst re-enqueues flows toward a destination whose per-dst pause
// lifted.
func (h *Host) wakeDst(dst packet.NodeID) {
	for f := h.senders; f != nil; f = f.snext {
		if f.Dst == dst {
			h.enqueue(f)
		}
	}
	h.kick()
}

// clearPFC lifts an inbound PFC pause, if any, and restarts the NIC: on
// the ToR's resume, or from the fault plane when the link that carried —
// or lost — the resume comes back up.
func (h *Host) clearPFC() {
	if h.pfc.resume(h.net, topo.LayerHost) {
		h.kick()
	}
}

// onPeerReset reacts to the host's ToR restarting: every pause the
// switch held on the host (PFC, per-dst, per-flow) died with its state,
// so forget them all and wake the blocked flows.
func (h *Host) onPeerReset() {
	h.clearPFC()
	h.net.hostHolds(-len(h.pausedDst), -len(h.pausedFlows))
	clear(h.pausedDst)
	clear(h.pausedFlows)
	h.wakeAll()
}

// wakeAll re-enqueues every live sender flow (pause state was reset).
func (h *Host) wakeAll() {
	for f := h.senders; f != nil; f = f.snext {
		h.enqueue(f)
	}
	h.kick()
}

func (h *Host) receiveData(p *packet.Packet, now units.Time) {
	h.net.arrived(h.node.ID, p)
	ndp := h.net.Cfg.NDP.Enable
	if h.net.isDone(p.Flow) {
		// Straggler or retransmitted segment after completion: re-ACK so
		// a sender whose final cumulative ACK was lost stops rewinding.
		// (The sender may live on another shard and cannot peek at
		// receiver state, so silence would loop its RTO forever.) The
		// flow's object may be recycled by now; the log answers for it.
		if !ndp {
			s := h.net.spec(p.Flow)
			ack := h.net.NewCtrl(packet.Ack, p.Flow, h.node.ID, s.Src)
			ack.AckSeq = s.size()
			h.sendCtrl(ack)
		}
		return
	}
	f := h.net.rcvFlow(p.Src, p.Flow)
	if f == nil {
		return
	}
	if ndp {
		h.receiveDataNDP(f, p, now)
		return
	}
	// Go-back-N receiver: in-order delivery only.
	if p.Seq == f.rcvNxt {
		f.rcvNxt += p.Payload
		h.net.received(f, p.Payload, now)
		if f.rcvNxt >= f.Size {
			h.completeFlow(f, now)
		}
	}
	// DCQCN notification point: reflect marks as rate-limited CNPs.
	if p.ECN && (!f.cnpSent || now.Sub(f.lastCNP) >= h.net.Cfg.CNPInterval) {
		f.lastCNP = now
		f.cnpSent = true
		h.sendCtrl(h.net.NewCtrl(packet.CNP, f.ID, h.node.ID, f.Src))
	}
	// Cumulative ACK carrying RTT echo and INT telemetry (copied, so
	// both packets recycle independently).
	ack := h.net.NewCtrl(packet.Ack, f.ID, h.node.ID, f.Src)
	ack.AckSeq = f.rcvNxt
	ack.EchoECN = p.ECN
	ack.SentAt = p.SentAt
	if len(p.Int) > 0 {
		ack.Int = append(ack.Int[:0], p.Int...)
		ack.Size += units.ByteSize(len(p.Int)) * packet.IntHopSize
	}
	h.sendCtrl(ack)
}

func (h *Host) receiveDataNDP(f *Flow, p *packet.Packet, now units.Time) {
	nd := f.ndp
	if p.Trimmed {
		// Cut payload: NACK the segment so the sender queues it for
		// retransmission, then pull it.
		nd.trims++
		nack := h.net.NewCtrl(packet.Nack, f.ID, h.node.ID, f.Src)
		nack.AckSeq = p.Seq
		h.sendCtrl(nack)
		h.maybePull(f)
		return
	}
	if nd.seen == nil {
		nd.seen = make(map[units.ByteSize]bool)
	}
	if !nd.seen[p.Seq] {
		nd.seen[p.Seq] = true
		nd.rcvdBytes += p.Payload
		h.net.received(f, p.Payload, now)
		if nd.rcvdBytes >= f.Size {
			h.completeFlow(f, now)
			return
		}
	}
	h.maybePull(f)
}

// maybePull queues one pull token if the sender still needs credit to
// cover every remaining segment (including retransmissions of trims).
func (h *Host) maybePull(f *Flow) {
	unscheduled := int((h.net.BaseBDP() + MSS - 1) / MSS)
	// A flow shorter than the unscheduled window consumed only its own
	// packet count of free sends; retransmissions of its trimmed
	// segments still need pulls.
	if t := f.totalPkts(); unscheduled > t {
		unscheduled = t
	}
	needed := f.totalPkts() + f.ndp.trims - unscheduled
	if f.ndp.pullsSent >= needed || f.done {
		return
	}
	f.ndp.pullsSent++
	h.pullQ = append(h.pullQ, f.ID)
	h.pacePulls()
}

// pacePulls emits queued pulls at one per MTU-time, emulating NDP's
// receiver-paced pull queue.
func (h *Host) pacePulls() {
	if h.pullBusy || len(h.pullQ) == 0 {
		return
	}
	id := h.pullQ[0]
	h.pullQ = h.pullQ[1:]
	// The done bit gates the read: a done flow's page may be recycled.
	if !h.net.isDone(id) {
		if f := h.net.rcvFlow(h.net.spec(id).Src, id); f != nil {
			h.sendCtrl(h.net.NewCtrl(packet.Pull, f.ID, h.node.ID, f.Src))
		}
	}
	h.pullBusy = true
	h.net.Eng.AfterArg(units.TxTime(packet.MTU, h.port.Rate), hostPullFn, h)
}

func (h *Host) completeFlow(f *Flow, now units.Time) {
	f.done = true
	f.Finish = now
	h.net.markDone(f.ID)
	h.net.flowDone(f, now)
}

func (h *Host) receiveAck(p *packet.Packet, now units.Time) {
	f := h.net.flow(p.Flow)
	if f == nil {
		return
	}
	var rtt units.Duration
	if p.SentAt > 0 {
		rtt = now.Sub(p.SentAt)
	}
	f.ctrl.OnAck(now, p, rtt)
	if p.AckSeq > f.sndUna {
		f.sndUna = p.AckSeq
		f.lastProgress = now
		if f.sndUna >= f.Size {
			f.senderDone = true
			if !f.queued { // else the sendq pop or wake timer holding it releases
				h.release(f)
			}
		} else {
			// Freed window may unblock the flow.
			h.enqueue(f)
		}
		h.kick()
	}
}

func (h *Host) receiveNack(p *packet.Packet) {
	f := h.net.flow(p.Flow)
	if f == nil || f.senderDone {
		return
	}
	f.ndp.rtxQ = append(f.ndp.rtxQ, p.AckSeq)
	h.net.resend(h.node.ID, f, false)
	h.enqueue(f)
	h.kick()
}

// armRTO places the flow on the host's timeout queue if absent.
func (h *Host) armRTO(f *Flow) {
	if h.net.Cfg.NDP.Enable || f.rtoSeq > 0 {
		return // NDP recovers via NACK/pull, not timeouts
	}
	f.lastProgress = h.net.Eng.Now()
	h.pushRTO(f)
	h.ensureRTOTimer()
}

func (h *Host) pushRTO(f *Flow) {
	if len(h.rtoQ) == cap(h.rtoQ) {
		h.compactRTO()
	}
	h.rtoQ = append(h.rtoQ, refOf(f))
	f.rtoSeq = int32(len(h.rtoQ))
}

// compactRTO drops the popped slots and the tombstones behind the head
// (popping one has no effect, so no timeout moves), renumbers the
// survivors and leaves them as much room again. The head keeps its slot:
// the armed timer is its deadline.
func (h *Host) compactRTO() {
	q := h.rtoQ[:0]
	for i, r := range h.rtoQ[h.rtoHead:] {
		if f := r.take("compactRTO"); f != nil {
			f.rtoSeq = int32(len(q) + 1)
		} else if i > 0 {
			continue
		}
		q = append(q, r)
	}
	clear(h.rtoQ[len(q):])
	h.rtoQ, h.rtoHead = slices.Grow(q, len(q)), 0
}

func (h *Host) ensureRTOTimer() {
	if h.rtoTimer.Active() || h.rtoHead >= len(h.rtoQ) {
		return
	}
	// Every pass of serviceRTO pops the tombstones and finished senders
	// it meets, so the head an idle timer finds is a live flow.
	head := h.rtoQ[h.rtoHead].take("ensureRTOTimer")
	h.rtoTimer = h.net.Eng.AtArg(head.lastProgress.Add(h.net.Cfg.RTO), hostRTOFn, h)
}

// serviceRTO pops expired entries: finished flows drop out, recently
// progressing flows re-queue, stalled flows go-back-N.
func (h *Host) serviceRTO() {
	now := h.net.Eng.Now()
	fired := false
	for h.rtoHead < len(h.rtoQ) {
		f := h.rtoQ[h.rtoHead].take("serviceRTO")
		if f != nil && !f.senderDone && f.lastProgress.Add(h.net.Cfg.RTO) > now {
			break // head not yet due; re-arm for it below
		}
		h.rtoQ[h.rtoHead] = flowRef{}
		h.rtoHead++
		if f == nil {
			continue // tombstone of a released (finished) sender
		}
		f.rtoSeq = 0
		// senderDone alone gates here: done is receiver-side state, which
		// may live on another shard. A sender that never saw its final
		// ACK retransmits and the receiver re-ACKs (see receiveData).
		if f.senderDone {
			continue
		}
		// Stalled: rewind and retransmit.
		if f.sndNxt > f.sndUna {
			h.net.resend(h.node.ID, f, true)
			f.sndNxt = f.sndUna
		}
		f.lastProgress = now
		h.pushRTO(f)
		h.enqueue(f)
		fired = true
	}
	h.ensureRTOTimer()
	if fired {
		h.kick()
	}
}

// ---- Transmit path ----

// sendCtrl queues a control frame with strict priority over data.
func (h *Host) sendCtrl(p *packet.Packet) {
	h.ctrlQ.push(p)
	h.kick()
}

// kick runs the NIC scheduler: control first, then one data segment
// from the next sendable flow. Flows that turn out to be blocked fall
// out of the queue; the unblocking event re-enqueues them, so the
// scheduler does O(1) amortised work per packet.
func (h *Host) kick() {
	if h.busy {
		return
	}
	if !h.ctrlQ.empty() {
		h.transmit(h.ctrlQ.pop())
		return
	}
	if h.pfc.paused {
		return
	}
	now := h.net.Eng.Now()
	ndp := h.net.Cfg.NDP.Enable
	for {
		f := h.popSendq()
		if f == nil {
			return
		}
		f.queued = false
		if !f.wantsSend() {
			h.net.sendState(h, f, forensics.SendNet)
			if f.senderDone {
				h.release(f) // fully acked while it sat in the queue
			}
			continue
		}
		if (len(h.pausedDst) != 0 && h.pausedDst[f.Dst]) ||
			(len(h.pausedFlows) != 0 && h.pausedFlows[f.ID]) {
			h.net.sendState(h, f, forensics.SendPaused)
			continue // resume re-enqueues
		}
		if ndp {
			canRtx := len(f.ndp.rtxQ) > 0 && f.ndp.pullCredits > 0
			canNew := f.sndNxt < f.Size && (f.sndNxt < h.net.BaseBDP() || f.ndp.pullCredits > 0)
			if !canRtx && !canNew {
				h.net.sendState(h, f, forensics.SendWindow)
				continue // a Pull re-enqueues
			}
		} else {
			payload := f.Size - f.sndNxt
			if payload > MSS {
				payload = MSS
			}
			if f.inflight() > 0 && f.inflight()+payload > f.ctrl.Window() {
				h.net.sendState(h, f, forensics.SendWindow)
				continue // an ACK re-enqueues
			}
			if f.nextSend > now {
				// Pacing: the flow stays owed to the queue; its wake
				// timer re-enqueues it.
				h.net.sendState(h, f, forensics.SendPaced)
				f.queued = true
				h.net.Eng.AtArg(f.nextSend, flowWakeFn, refOf(f))
				continue
			}
		}
		h.sendSegment(f, now)
		return
	}
}

// sendSegment emits the flow's next data packet (or an NDP rtx).
func (h *Host) sendSegment(f *Flow, now units.Time) {
	var seq units.ByteSize
	isRtx := false
	if nd := f.ndp; nd != nil && len(nd.rtxQ) > 0 && nd.pullCredits > 0 {
		seq = nd.rtxQ[0]
		nd.rtxQ = nd.rtxQ[1:]
		nd.pullCredits--
		isRtx = true
	} else {
		seq = f.sndNxt
		if nd != nil && seq >= h.net.BaseBDP() {
			nd.pullCredits--
		}
		// Go-back-N resend: the timeout rewound sndNxt below the
		// furthest byte ever emitted.
		isRtx = seq < f.maxSent
	}
	payload := f.Size - seq
	if payload > MSS {
		payload = MSS
	}
	last := seq+payload >= f.Size
	p := h.net.newData(f.ID, f.Src, f.Dst, seq, payload, last)
	p.Cat = f.Cat
	p.Retrans = isRtx
	p.SentAt = now
	p.InPort = -1
	p.UpstreamQ = -1 // hosts have per-flow queues, not indexed ones
	if !isRtx || seq == f.sndNxt {
		f.sndNxt = seq + payload
		if f.sndNxt > f.maxSent {
			f.maxSent = f.sndNxt
		}
	}
	f.nextSend = now.Add(units.TxTime(p.Size, f.ctrl.Rate()))
	f.ctrl.OnSend(now, p.Size)
	h.armRTO(f)
	h.enqueue(f) // rotate to the queue tail if more remains
	if !f.queued {
		// Everything emitted: the flow now waits on the network. A later
		// re-enqueue (NACK, RTO rewind) closes this interval as rtx waste.
		h.net.sendState(h, f, forensics.SendNet)
	}
	h.net.sent(h.node.ID, p)
	h.transmit(p)
}

// transmit serialises one frame on the NIC.
func (h *Host) transmit(p *packet.Packet) {
	h.busy = true
	ser := units.TxTime(p.Size, h.port.Rate)
	h.net.Eng.AfterArg(ser, hostTxDoneFn, h)
	if h.net.faults != nil && h.net.linkDropped(h.port, p.Kind) {
		h.net.Drop(h.node.ID, p)
		return
	}
	h.wire.push(h.net.Eng.Now().Add(ser+h.port.Prop), p)
}

// DebugString reports a flow's transfer state (diagnostics).
func (f *Flow) DebugString() string {
	return fmt.Sprintf("flow %d %d->%d size=%v start=%v sndNxt=%v sndUna=%v rcvNxt=%v queued=%v rtoSeq=%v senderDone=%v",
		f.ID, f.Src, f.Dst, f.Size, f.Start, f.sndNxt, f.sndUna, f.rcvNxt, f.queued, f.rtoSeq, f.senderDone)
}
