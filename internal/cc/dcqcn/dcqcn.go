// Package dcqcn implements DCQCN (Zhu et al., SIGCOMM '15): ECN-based
// rate control for RoCEv2. The switch marks ECN between Kmin/Kmax, the
// receiver (notification point) reflects marks as CNPs at most once
// per CNPInterval, and the sender (reaction point) multiplicatively
// decreases on CNP and recovers through fast-recovery, additive and
// hyper increase stages. Timer-driven behaviour (alpha decay, rate
// increase) is evaluated lazily from packet events, which is exact up
// to event granularity and keeps the event loop packet-proportional.
package dcqcn

import (
	"floodgate/internal/cc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Config holds DCQCN reaction-point parameters. The defaults follow
// the common simulation bindings of the original paper.
type Config struct {
	G                 float64        // alpha EWMA gain (1/256)
	AlphaInterval     units.Duration // alpha decay period (55us)
	RateIncInterval   units.Duration // rate-increase timer period (55us)
	ByteCounter       units.ByteSize // rate-increase byte period (10MB)
	FastRecoverySteps int            // F, stages of fast recovery (5)
	RateAI            units.BitRate  // additive increase step (40Mbps)
	RateHAI           units.BitRate  // hyper increase step (400Mbps)
	MinRateFraction   int            // floor = LinkRate / this (1000)
	DecreaseMinGap    units.Duration // min spacing of rate cuts (50us)
}

// DefaultConfig returns the standard parameter binding.
func DefaultConfig() Config {
	return Config{
		G:                 1.0 / 256,
		AlphaInterval:     55 * units.Microsecond,
		RateIncInterval:   55 * units.Microsecond,
		ByteCounter:       10 * units.MB,
		FastRecoverySteps: 5,
		RateAI:            40 * units.Mbps,
		RateHAI:           400 * units.Mbps,
		MinRateFraction:   1000,
		DecreaseMinGap:    50 * units.Microsecond,
	}
}

// New returns a DCQCN controller factory with the given config.
func New(cfg Config) cc.Factory {
	return func(e cc.Env) cc.Controller {
		s := &state{cfg: &cfg}
		s.Reset(e)
		return s
	}
}

// Reset implements cc.Controller.
func (s *state) Reset(e cc.Env) {
	*s = state{
		cfg:    s.cfg,
		link:   e.LinkRate,
		window: e.BDP,
		rc:     float64(e.LinkRate),
		rt:     float64(e.LinkRate),
		alpha:  1,
	}
}

// Default returns a factory with DefaultConfig.
func Default() cc.Factory { return New(DefaultConfig()) }

// state is one flow's reaction point: 96 bytes (TestStateSize), one per
// flow in flight, so the rate floor is derived (minRate) and the stage
// counters are 32-bit.
type state struct {
	cfg    *Config // the factory's binding, shared by every flow it builds
	link   units.BitRate
	window units.ByteSize

	rc, rt float64 // current and target rate (bps)
	alpha  float64

	lastCNP       units.Time // last rate decrease
	lastAlpha     units.Time // last alpha update
	lastTimerInc  units.Time // last timer-driven increase
	bytesSinceInc units.ByteSize
	timerStage    int32
	byteStage     int32
	everCongested bool // until the first CNP, stay at line rate
}

// minRate is the rate floor, LinkRate / MinRateFraction.
func (s *state) minRate() float64 { return float64(s.link) / float64(s.cfg.MinRateFraction) }

func (s *state) Rate() units.BitRate    { return units.BitRate(s.rc) }
func (s *state) Window() units.ByteSize { return s.window }

// OnCNP is the DCQCN rate decrease.
func (s *state) OnCNP(now units.Time) {
	s.catchUp(now)
	if s.everCongested && now.Sub(s.lastCNP) < s.cfg.DecreaseMinGap {
		// CNPs are already rate-limited at the NP; guard anyway.
		s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
		s.lastAlpha = now
		return
	}
	s.everCongested = true
	s.rt = s.rc
	s.rc = s.rc * (1 - s.alpha/2)
	if m := s.minRate(); s.rc < m {
		s.rc = m
	}
	s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
	s.lastCNP = now
	s.lastAlpha = now
	s.lastTimerInc = now
	s.timerStage = 0
	s.byteStage = 0
	s.bytesSinceInc = 0
}

// OnAck advances lazy timers.
func (s *state) OnAck(now units.Time, _ *packet.Packet, _ units.Duration) {
	s.catchUp(now)
}

// OnSend counts bytes toward the byte-counter increase stage.
func (s *state) OnSend(now units.Time, bytes units.ByteSize) {
	if !s.everCongested {
		return
	}
	s.bytesSinceInc += bytes
	for s.bytesSinceInc >= s.cfg.ByteCounter {
		s.bytesSinceInc -= s.cfg.ByteCounter
		s.byteStage++
		s.increase()
	}
	s.catchUp(now)
}

// catchUp applies every alpha decay and timer increase due since the
// last event.
func (s *state) catchUp(now units.Time) {
	if !s.everCongested {
		s.lastAlpha, s.lastTimerInc = now, now
		return
	}
	for now.Sub(s.lastAlpha) >= s.cfg.AlphaInterval {
		s.lastAlpha = s.lastAlpha.Add(s.cfg.AlphaInterval)
		s.alpha *= 1 - s.cfg.G
	}
	for now.Sub(s.lastTimerInc) >= s.cfg.RateIncInterval {
		s.lastTimerInc = s.lastTimerInc.Add(s.cfg.RateIncInterval)
		s.timerStage++
		s.increase()
	}
}

// increase applies one DCQCN increase event in the stage reached.
func (s *state) increase() {
	f := int32(s.cfg.FastRecoverySteps)
	switch {
	case s.timerStage < f && s.byteStage < f:
		// fast recovery: halve toward target
	case s.timerStage > f && s.byteStage > f:
		s.rt += float64(s.cfg.RateHAI) // hyper increase
	default:
		s.rt += float64(s.cfg.RateAI) // additive increase
	}
	if s.rt > float64(s.link) {
		s.rt = float64(s.link)
	}
	s.rc = (s.rt + s.rc) / 2
	if s.rc > float64(s.link) {
		s.rc = float64(s.link)
	}
}
