// Flow-control plug-in surface. Floodgate, BFC and PFC-w/-tag are all
// per-switch modules hooked into the same three points of a switch's
// fast path: ingress classification (after routing), control-packet
// interception, and egress dequeue. The switch exposes the small
// mutation surface the modules need (enqueue to egress, send control
// frames upstream, buffer accounting for parked packets).
package device

import (
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Verdict is a module's decision about an arriving data packet.
type Verdict struct {
	// Consumed means the module took ownership (e.g. parked the packet
	// in a VOQ). The switch keeps the buffer charged; the module must
	// eventually re-inject via Switch.InjectEgress or discard via
	// Switch.ReleaseParked.
	Consumed bool
	// Queue selects the egress data queue (0 = default). Used by BFC.
	Queue int
}

// FlowControl is a per-switch flow-control module.
type FlowControl interface {
	// OnIngress classifies an arriving data packet after routing chose
	// outPort. Buffer is already charged.
	OnIngress(p *packet.Packet, inPort, outPort int) Verdict
	// OnCtrl intercepts module control traffic (credits, pauses).
	// Return true if consumed; false forwards it like any control frame.
	OnCtrl(p *packet.Packet, inPort int) bool
	// OnDequeue observes a data packet leaving an egress queue for the
	// wire (BFC resume checks, Floodgate credit bookkeeping).
	OnDequeue(p *packet.Packet, outPort, queue int)
	// QueueSignal returns the queue length congestion signals (ECN/INT)
	// should see for this packet, or -1 to use the port's data backlog
	// (§8: incast packets report the VOQ sum instead).
	QueueSignal(p *packet.Packet, outPort int) units.ByteSize
}

// Restarter is an optional FlowControl extension: a module that can
// reinitialize its own soft state when its switch restarts (fault
// plane). Modules without it are rebuilt from the FCFactory instead,
// which loses any packets they had parked — implement Restarter if the
// module takes Consumed ownership of packets.
type Restarter interface {
	Restart()
}

// StallReporter is an optional FlowControl extension: a module that can
// describe the flow-control state relevant to a stalled run (consumed
// by the watchdog diagnosis and the fault counters).
type StallReporter interface {
	StallReport() StallInfo
}

// StallInfo is one module's contribution to a stall diagnosis.
type StallInfo struct {
	ExhaustedWindows int            // per-dst windows below one MTU
	WindowDeficit    units.ByteSize // un-credited (outstanding) window bytes
	ParkedBytes      units.ByteSize // bytes parked in VOQs
	Resyncs          int            // peer-restart resynchronizations seen
}

// FCFactory builds a module bound to one switch.
type FCFactory func(sw *Switch) FlowControl

// nopFC is the default pass-through module.
type nopFC struct{}

func (nopFC) OnIngress(*packet.Packet, int, int) Verdict     { return Verdict{} }
func (nopFC) OnCtrl(*packet.Packet, int) bool                { return false }
func (nopFC) OnDequeue(*packet.Packet, int, int)             {}
func (nopFC) QueueSignal(*packet.Packet, int) units.ByteSize { return -1 }
