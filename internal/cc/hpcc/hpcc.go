// Package hpcc implements HPCC (Li et al., SIGCOMM '19): window-based
// congestion control driven by inline network telemetry. Every data
// packet accumulates one IntHop per switch; the receiver echoes the
// stack on the ACK; the sender computes each link's utilisation
// U = qlen/(B·T) + txRate/B and multiplicatively steers its window so
// max-link utilisation converges to η, with additive WAI probing and a
// bounded fast-increase stage count.
package hpcc

import (
	"floodgate/internal/cc"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// The paper's binding (§5: η=0.95, maxStage=5).
const (
	eta         = 0.95   // target max-link utilisation
	maxStage    = 5      // fast-increase stages before a forced recompute
	waiFraction = 0.0125 // WAI = Winit × waiFraction
)

// Default returns an HPCC controller factory.
func Default() cc.Factory {
	return func(e cc.Env) cc.Controller {
		s := &state{}
		s.Reset(e)
		return s
	}
}

// Reset implements cc.Controller.
func (s *state) Reset(e cc.Env) {
	winit := float64(e.BDP)
	*s = state{
		link:    e.LinkRate,
		baseRTT: e.BaseRTT,
		wInit:   winit,
		w:       winit,
		wc:      winit,
		wai:     winit * waiFraction,
		minW:    float64(packet.MTU),
	}
}

type state struct {
	link    units.BitRate
	baseRTT units.Duration

	wInit float64
	w     float64 // current window
	wc    float64 // reference window
	wai   float64
	minW  float64

	lastInt    []packet.IntHop
	incStage   int
	lastUpdate units.Time
	seenInt    bool
}

func (s *state) Rate() units.BitRate {
	// Pace at W/baseRTT so the window drains smoothly over one RTT.
	r := units.Rate(units.ByteSize(s.w), s.baseRTT)
	if r > s.link {
		return s.link
	}
	if r <= 0 {
		return units.Mbps
	}
	return r
}

func (s *state) Window() units.ByteSize {
	w := units.ByteSize(s.w)
	if w < packet.MTU {
		w = packet.MTU
	}
	return w
}

func (s *state) OnAck(now units.Time, ack *packet.Packet, _ units.Duration) {
	if len(ack.Int) == 0 {
		return
	}
	if !s.seenInt || len(s.lastInt) != len(ack.Int) {
		// First telemetry (or path change): just remember the reference.
		s.lastInt = append(s.lastInt[:0], ack.Int...)
		s.seenInt = true
		return
	}
	u := s.maxUtilisation(ack.Int)
	s.lastInt = append(s.lastInt[:0], ack.Int...)

	updateWc := now.Sub(s.lastUpdate) > s.baseRTT
	if u >= eta || s.incStage >= maxStage {
		s.w = s.wc/(u/eta) + s.wai
		if updateWc {
			s.wc = s.w
			s.incStage = 0
			s.lastUpdate = now
		}
	} else {
		s.w = s.wc + s.wai
		if updateWc {
			s.wc = s.w
			s.incStage++
			s.lastUpdate = now
		}
	}
	if s.w < s.minW {
		s.w = s.minW
	}
	if s.w > 2*s.wInit {
		s.w = 2 * s.wInit
	}
}

// maxUtilisation computes max-link U from consecutive INT snapshots.
func (s *state) maxUtilisation(cur []packet.IntHop) float64 {
	maxU := 0.0
	for i := range cur {
		prev := s.lastInt[i]
		dt := cur[i].TS.Sub(prev.TS)
		if dt <= 0 {
			continue
		}
		b := float64(cur[i].LinkRate)
		if b <= 0 {
			continue
		}
		txRate := float64(cur[i].TxBytes-prev.TxBytes) * 8 / dt.Seconds()
		qlen := cur[i].QLen
		if prev.QLen < qlen {
			qlen = prev.QLen
		}
		qTerm := float64(qlen) * 8 / (b * s.baseRTT.Seconds())
		u := qTerm + txRate/b
		if u > maxU {
			maxU = u
		}
	}
	return maxU
}

func (s *state) OnCNP(units.Time) {}

func (s *state) OnSend(units.Time, units.ByteSize) {}
