// Package swift implements Swift (Kumar et al., SIGCOMM '20), the
// delay-based datacenter congestion control the paper lists among the
// reactive protocols Floodgate complements (§2.3). Swift compares each
// RTT sample against a target delay (base plus a flow-count-aware
// scaling term), applies AIMD on the congestion window with pacing
// below one packet, and uses multiplicative decrease proportional to
// the delay overshoot.
package swift

import (
	"floodgate/internal/cc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// The binding used in the experiments.
const (
	baseTargetFactor = 1.25       // target delay = baseTargetFactor × base RTT
	ai               = packet.MTU // additive increase in bytes per acked window
	beta             = 0.8        // max multiplicative decrease per decision
	maxScale         = 4          // window cap in BDPs
)

// Default returns a Swift controller factory.
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
		link:    e.LinkRate,
		baseRTT: e.BaseRTT,
		target:  units.Duration(baseTargetFactor * float64(e.BaseRTT)),
		bdp:     float64(e.BDP),
		cwnd:    float64(e.BDP),
	}
}

type state struct {
	link    units.BitRate
	baseRTT units.Duration
	target  units.Duration
	bdp     float64

	cwnd       float64
	lastCut    units.Time
	ackedSince units.ByteSize
	lastAckSeq units.ByteSize
}

func (s *state) Rate() units.BitRate {
	// Pace the window over the base RTT (Swift paces below 1-packet
	// windows; our floor is one MTU so plain pacing suffices).
	r := units.Rate(units.ByteSize(s.cwnd), s.baseRTT)
	if r > s.link {
		return s.link
	}
	if r <= 0 {
		return units.Mbps
	}
	return r
}

func (s *state) Window() units.ByteSize {
	w := units.ByteSize(s.cwnd)
	if w < packet.MTU {
		w = packet.MTU
	}
	return w
}

func (s *state) OnAck(now units.Time, ack *packet.Packet, rtt units.Duration) {
	if rtt <= 0 {
		return
	}
	if ack != nil {
		if delta := ack.AckSeq - s.lastAckSeq; delta > 0 {
			s.ackedSince += delta
			s.lastAckSeq = ack.AckSeq
		}
	}
	if rtt <= s.target {
		// Additive increase, scaled per acked window.
		if float64(s.ackedSince) >= s.cwnd {
			s.cwnd += float64(ai)
			s.ackedSince = 0
		}
	} else if now.Sub(s.lastCut) >= s.baseRTT {
		// Multiplicative decrease proportional to overshoot, at most
		// once per RTT.
		over := 1 - float64(s.target)/float64(rtt)
		cut := beta * over
		if cut > beta {
			cut = beta
		}
		s.cwnd *= 1 - cut
		s.lastCut = now
	}
	if s.cwnd < float64(packet.MTU) {
		s.cwnd = float64(packet.MTU)
	}
	if s.cwnd > maxScale*s.bdp {
		s.cwnd = maxScale * s.bdp
	}
}

func (s *state) OnCNP(units.Time) {}

func (s *state) OnSend(units.Time, units.ByteSize) {}
