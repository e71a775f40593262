// Package timely implements TIMELY (Mittal et al., SIGCOMM '15):
// RTT-gradient congestion control. Each ACK yields an RTT sample; the
// controller additively increases below Tlow, multiplicatively
// decreases above Thigh, and in between steers by the normalised RTT
// gradient with HAI (hyper-active increase) after consecutive negative
// gradients. Thresholds default to multiples of the path's base RTT so
// one binding works across the paper's 10 Gbps testbed and 100 Gbps
// fabric.
package timely

import (
	"floodgate/internal/cc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// The binding used in the experiments.
const (
	ewma            = 0.3  // alpha for RTT-difference smoothing
	beta            = 0.8  // multiplicative decrease factor
	tLowFactor      = 1.5  // Tlow = tLowFactor × baseRTT
	tHighFactor     = 5    // Thigh = tHighFactor × baseRTT
	deltaFraction   = 200  // additive step = LinkRate / deltaFraction
	haiAfter        = 5    // consecutive negative-gradient samples before HAI
	minRateFraction = 1000 // floor = LinkRate / this
)

// Default returns a TIMELY controller factory.
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
		window:  e.BDP,
		minRTT:  e.BaseRTT,
		tLow:    units.Duration(tLowFactor * float64(e.BaseRTT)),
		tHigh:   units.Duration(tHighFactor * float64(e.BaseRTT)),
		rate:    float64(e.LinkRate),
		delta:   float64(e.LinkRate) / deltaFraction,
		minRate: float64(e.LinkRate) / minRateFraction,
	}
}

type state struct {
	link   units.BitRate
	window units.ByteSize
	minRTT units.Duration
	tLow   units.Duration
	tHigh  units.Duration

	rate    float64
	delta   float64
	minRate float64

	prevRTT  units.Duration
	rttDiff  float64 // smoothed RTT difference (ps)
	negCount int
}

func (s *state) Rate() units.BitRate    { return units.BitRate(s.rate) }
func (s *state) Window() units.ByteSize { return s.window }

func (s *state) OnAck(_ units.Time, _ *packet.Packet, rtt units.Duration) {
	if rtt <= 0 {
		return
	}
	if s.prevRTT == 0 {
		s.prevRTT = rtt
		return
	}
	newDiff := float64(rtt - s.prevRTT)
	s.prevRTT = rtt
	s.rttDiff = (1-ewma)*s.rttDiff + ewma*newDiff
	gradient := s.rttDiff / float64(s.minRTT)

	switch {
	case rtt < s.tLow:
		s.negCount = 0
		s.rate += s.delta
	case rtt > s.tHigh:
		s.negCount = 0
		s.rate *= 1 - beta*(1-float64(s.tHigh)/float64(rtt))
	case gradient <= 0:
		s.negCount++
		n := 1.0
		if s.negCount >= haiAfter {
			n = 5
		}
		s.rate += n * s.delta
	default:
		s.negCount = 0
		if gradient > 1 {
			gradient = 1
		}
		s.rate *= 1 - beta*gradient
	}
	if s.rate > float64(s.link) {
		s.rate = float64(s.link)
	}
	if s.rate < s.minRate {
		s.rate = s.minRate
	}
}

func (s *state) OnCNP(units.Time) {}

func (s *state) OnSend(units.Time, units.ByteSize) {}
