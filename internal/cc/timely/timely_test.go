package timely

import (
	"testing"

	"floodgate/internal/cc"
	"floodgate/internal/units"
)

func env() cc.Env {
	rtt := units.Duration(51) * units.Microsecond / 10
	rate := 100 * units.Gbps
	return cc.Env{LinkRate: rate, BaseRTT: rtt, BDP: units.BDP(rate, rtt)}
}

func TestThresholdsScaleWithBaseRTT(t *testing.T) {
	s := Default()(env()).(*state)
	if s.tLow != units.Duration(1.5*float64(s.minRTT)) {
		t.Fatalf("tLow = %v", s.tLow)
	}
	if s.tHigh != 5*s.minRTT {
		t.Fatalf("tHigh = %v", s.tHigh)
	}
}

func TestHAIAfterConsecutiveNegativeGradients(t *testing.T) {
	s := Default()(env()).(*state)
	// Decrease first so there is headroom to observe increases.
	s.OnAck(0, nil, 10*units.Microsecond)
	s.OnAck(0, nil, 20*units.Microsecond)
	base := s.rate
	// Falling RTTs: the smoothed gradient needs a few samples to turn
	// negative; after that increases apply, eventually at 5x (HAI).
	var steps []float64
	for i := 0; i < 24; i++ {
		prev := s.rate
		s.OnAck(0, nil, units.Duration(18-i/2)*units.Microsecond)
		steps = append(steps, s.rate-prev)
	}
	if s.rate <= base {
		t.Fatalf("no recovery on falling RTTs (rate %v vs %v)", s.rate, base)
	}
	if steps[len(steps)-1] <= steps[0] {
		t.Fatalf("HAI did not accelerate increases: %v", steps)
	}
}

func TestIgnoresNonPositiveRTT(t *testing.T) {
	s := Default()(env())
	r0 := s.Rate()
	s.OnAck(0, nil, 0)
	s.OnAck(0, nil, -5)
	if s.Rate() != r0 {
		t.Fatal("non-positive RTT samples must be ignored")
	}
}

func TestRateFloor(t *testing.T) {
	s := Default()(env())
	for i := 0; i < 500; i++ {
		s.OnAck(0, nil, units.Millisecond)
	}
	if s.Rate() < 100*units.Mbps {
		t.Fatalf("rate fell through the floor: %v", s.Rate())
	}
}
