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

// Config holds TIMELY parameters.
type Config struct {
	EWMA            float64 // alpha for RTT-difference smoothing
	Beta            float64 // multiplicative decrease factor
	TLowFactor      float64 // Tlow = TLowFactor × baseRTT
	THighFactor     float64 // Thigh = THighFactor × baseRTT
	DeltaFraction   int     // additive step = LinkRate / DeltaFraction
	HAIAfter        int     // consecutive negative-gradient samples before HAI
	MinRateFraction int     // floor = LinkRate / this
}

// DefaultConfig returns the binding used in the experiments.
func DefaultConfig() Config {
	return Config{
		EWMA:            0.3,
		Beta:            0.8,
		TLowFactor:      1.5,
		THighFactor:     5,
		DeltaFraction:   200,
		HAIAfter:        5,
		MinRateFraction: 1000,
	}
}

// New returns a TIMELY controller factory.
func New(cfg Config) cc.Factory {
	return func(e cc.Env) cc.Controller {
		s := &state{cfg: cfg}
		s.Reset(e)
		return s
	}
}

// Reset implements cc.Controller.
func (s *state) Reset(e cc.Env) {
	*s = state{
		cfg:     s.cfg,
		link:    e.LinkRate,
		window:  e.BDP,
		minRTT:  e.BaseRTT,
		tLow:    units.Duration(s.cfg.TLowFactor * float64(e.BaseRTT)),
		tHigh:   units.Duration(s.cfg.THighFactor * float64(e.BaseRTT)),
		rate:    float64(e.LinkRate),
		delta:   float64(e.LinkRate) / float64(s.cfg.DeltaFraction),
		minRate: float64(e.LinkRate) / float64(s.cfg.MinRateFraction),
	}
}

// Default returns a factory with DefaultConfig.
func Default() cc.Factory { return New(DefaultConfig()) }

type state struct {
	cfg    Config
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
	s.rttDiff = (1-s.cfg.EWMA)*s.rttDiff + s.cfg.EWMA*newDiff
	gradient := s.rttDiff / float64(s.minRTT)

	switch {
	case rtt < s.tLow:
		s.negCount = 0
		s.rate += s.delta
	case rtt > s.tHigh:
		s.negCount = 0
		s.rate *= 1 - s.cfg.Beta*(1-float64(s.tHigh)/float64(rtt))
	case gradient <= 0:
		s.negCount++
		n := 1.0
		if s.negCount >= s.cfg.HAIAfter {
			n = 5
		}
		s.rate += n * s.delta
	default:
		s.negCount = 0
		if gradient > 1 {
			gradient = 1
		}
		s.rate *= 1 - s.cfg.Beta*gradient
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
