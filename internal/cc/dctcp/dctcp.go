// Package dctcp implements DCTCP (Alizadeh et al., SIGCOMM '10)
// adapted to the simulator's RoCE-style hosts: a window-based
// controller that tracks the fraction of ECN-marked acknowledgements
// per window and shrinks the congestion window proportionally
// (cwnd ← cwnd·(1 − α/2)), growing additively otherwise. The paper's
// §8 discusses Floodgate's compatibility with DCTCP alongside DCQCN
// and HPCC; this package lets the harness exercise that combination.
package dctcp

import (
	"floodgate/internal/cc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// g is the alpha EWMA gain, the paper binding. The initial window is
// one BDP.
const g = 1.0 / 16

// Default returns a DCTCP controller factory.
func Default() cc.Factory {
	return func(e cc.Env) cc.Controller {
		s := &state{}
		s.Reset(e)
		return s
	}
}

// Reset implements cc.Controller.
func (s *state) Reset(e cc.Env) {
	*s = state{
		link: e.LinkRate,
		bdp:  float64(e.BDP),
		cwnd: float64(e.BDP),
	}
}

type state struct {
	link units.BitRate
	bdp  float64

	cwnd  float64
	alpha float64

	ackedBytes  units.ByteSize // bytes acked this observation window
	markedBytes units.ByteSize // of which ECN-echo marked
	windowAcked units.ByteSize // progress toward one cwnd of acks
	lastAck     units.ByteSize
}

func (s *state) Rate() units.BitRate { return s.link } // window-limited, line-rate bursts

func (s *state) Window() units.ByteSize {
	w := units.ByteSize(s.cwnd)
	if w < packet.MTU {
		w = packet.MTU
	}
	return w
}

func (s *state) OnAck(_ units.Time, ack *packet.Packet, _ units.Duration) {
	if ack == nil {
		return
	}
	delta := ack.AckSeq - s.lastAck
	if delta <= 0 {
		return
	}
	s.lastAck = ack.AckSeq
	s.ackedBytes += delta
	if ack.EchoECN {
		s.markedBytes += delta
	}
	s.windowAcked += delta
	if float64(s.windowAcked) < s.cwnd {
		return
	}
	// One congestion window of acknowledgements observed: update alpha
	// and adjust the window.
	frac := 0.0
	if s.ackedBytes > 0 {
		frac = float64(s.markedBytes) / float64(s.ackedBytes)
	}
	s.alpha = (1-g)*s.alpha + g*frac
	if frac > 0 {
		s.cwnd *= 1 - s.alpha/2
	} else {
		s.cwnd += float64(packet.MTU) // additive increase per RTT
	}
	if s.cwnd < float64(packet.MTU) {
		s.cwnd = float64(packet.MTU)
	}
	if s.cwnd > 4*s.bdp {
		s.cwnd = 4 * s.bdp
	}
	s.ackedBytes, s.markedBytes, s.windowAcked = 0, 0, 0
}

func (s *state) OnCNP(units.Time) {}

func (s *state) OnSend(units.Time, units.ByteSize) {}
