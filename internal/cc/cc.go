// Package cc defines the congestion-control contract between a host's
// flow and its rate/window algorithm, plus the per-flow sending window
// the paper layers on every protocol ("a per-flow sending window on
// hosts is added ... limiting the in-flight packets of a flow", §6).
// Concrete algorithms live in the subpackages dcqcn, timely and hpcc.
package cc

import (
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Controller adapts one flow's sending rate and window to congestion
// feedback. Implementations are single-flow and single-threaded; all
// time-dependent behaviour must be computed lazily from the timestamps
// passed in (the simulator never gives a controller its own timers, so
// a run's event count stays proportional to packets, not flows).
type Controller interface {
	// Rate returns the current pacing rate.
	Rate() units.BitRate
	// Window returns the in-flight byte limit.
	Window() units.ByteSize
	// OnAck processes an acknowledgement carrying optional ECN echo and
	// INT telemetry; rtt is the host-measured sample for this ACK.
	OnAck(now units.Time, ack *packet.Packet, rtt units.Duration)
	// OnCNP processes a DCQCN congestion-notification packet.
	OnCNP(now units.Time)
	// OnSend observes payload bytes handed to the NIC.
	OnSend(now units.Time, bytes units.ByteSize)
	// Reset returns the controller to the state its Factory would build
	// for env, so a finished flow's controller can serve the next flow.
	Reset(env Env)
}

// Env is what a controller knows about its flow's path when created.
type Env struct {
	LinkRate units.BitRate  // host NIC line rate
	BaseRTT  units.Duration // unloaded round-trip time
	BDP      units.ByteSize // LinkRate × BaseRTT
}

// Factory builds a controller for one new flow.
type Factory func(Env) Controller

// FixedWindow is the degenerate controller: line rate, one-BDP window,
// no reaction. It emulates a sender's first-RTT behaviour in isolation
// and serves as the control in unit tests.
type FixedWindow struct {
	R units.BitRate
	W units.ByteSize
}

// NewFixedWindow returns a FixedWindow factory.
func NewFixedWindow() Factory {
	return func(e Env) Controller {
		return &FixedWindow{R: e.LinkRate, W: e.BDP}
	}
}

// Rate implements Controller.
func (f *FixedWindow) Rate() units.BitRate { return f.R }

// Window implements Controller.
func (f *FixedWindow) Window() units.ByteSize { return f.W }

// OnAck implements Controller.
func (f *FixedWindow) OnAck(units.Time, *packet.Packet, units.Duration) {}

// OnCNP implements Controller.
func (f *FixedWindow) OnCNP(units.Time) {}

// OnSend implements Controller.
func (f *FixedWindow) OnSend(units.Time, units.ByteSize) {}

// Reset implements Controller.
func (f *FixedWindow) Reset(e Env) { *f = FixedWindow{R: e.LinkRate, W: e.BDP} }
