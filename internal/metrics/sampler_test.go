package metrics

import (
	"strings"
	"testing"

	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// TestSamplerZeroPeriod pins the fallback: a non-positive period must
// not arm a zero-interval tick loop (which would never advance the
// clock) but fall back to DefaultPeriod.
func TestSamplerZeroPeriod(t *testing.T) {
	for _, period := range []units.Duration{0, -units.Microsecond} {
		eng := sim.NewEngine()
		reg := NewRegistry()
		g := reg.Gauge("g", "units")
		s := NewSampler(eng, reg, period)
		if s.Period() != DefaultPeriod {
			t.Fatalf("Period() = %v for input %v, want DefaultPeriod %v", s.Period(), period, DefaultPeriod)
		}
		g.Set(5)
		s.Start()
		eng.Run(units.Time(3 * DefaultPeriod))
		if s.Ticks() != 3 {
			t.Errorf("period %v: ticks = %d over 3 default periods, want 3", period, s.Ticks())
		}
	}
}

// TestSamplerOutlivesEngineStop pins that a sampler whose engine has
// stopped (horizon reached or Stop called) still exports cleanly: the
// pending tick simply never fires, and the series hold exactly the
// samples taken before the stop.
func TestSamplerOutlivesEngineStop(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := reg.Counter("c", "events")
	s := NewSampler(eng, reg, units.Microsecond)
	s.Start()
	c.Add(7)
	eng.Run(units.Time(2*units.Microsecond + 500*units.Nanosecond))
	eng.Stop()
	if s.Ticks() != 2 {
		t.Fatalf("ticks = %d, want 2", s.Ticks())
	}
	var b strings.Builder
	if err := s.WriteNDJSON(&b); err != nil {
		t.Fatalf("WriteNDJSON after engine stop: %v", err)
	}
	if !strings.Contains(b.String(), `"ticks":2`) {
		t.Errorf("NDJSON header should record the 2 completed ticks:\n%s", b.String())
	}
	series := s.series[0]
	if len(series) != 2 || series[0] != 7 || series[1] != 7 {
		t.Errorf("series = %v, want [7 7]", series)
	}
}

// TestSamplerProbeAfterStart pins that a probe registered after the
// first tick is honoured on subsequent ticks (the probe list is read
// each tick, not snapshotted at Start).
func TestSamplerProbeAfterStart(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	g := reg.Gauge("g", "units")
	s := NewSampler(eng, reg, units.Microsecond)
	s.Start()
	eng.Run(units.Time(units.Microsecond)) // first tick, no probe yet
	if s.Ticks() != 1 {
		t.Fatalf("ticks = %d, want 1", s.Ticks())
	}
	fired := 0
	s.AddProbe(func() {
		fired++
		g.Set(int64(fired))
	})
	eng.Run(units.Time(3 * units.Microsecond)) // two more ticks
	if s.Ticks() != 3 {
		t.Fatalf("ticks = %d, want 3", s.Ticks())
	}
	if fired != 2 {
		t.Errorf("late probe fired %d times, want 2", fired)
	}
	if series := s.series[0]; len(series) != 3 || series[0] != 0 || series[2] != 2 {
		t.Errorf("series = %v, want probe-driven values [0 1 2]", series)
	}
}
