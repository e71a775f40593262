package dcqcn

import (
	"testing"
	"unsafe"

	"floodgate/internal/cc"
	"floodgate/internal/units"
)

func env() cc.Env {
	rtt := units.Duration(51) * units.Microsecond / 10
	rate := 100 * units.Gbps
	return cc.Env{LinkRate: rate, BaseRTT: rtt, BDP: units.BDP(rate, rtt)}
}

func TestAlphaDecaysWhenUncongested(t *testing.T) {
	c := New(DefaultConfig())(env()).(*state)
	c.OnCNP(units.Time(100 * units.Microsecond))
	a0 := c.alpha
	// A quiet millisecond: alpha must decay via the lazy timer.
	c.OnAck(units.Time(1100*units.Microsecond), nil, 0)
	if c.alpha >= a0 {
		t.Fatalf("alpha did not decay: %v -> %v", a0, c.alpha)
	}
}

func TestFastRecoveryHalvesTowardTarget(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)(env()).(*state)
	t0 := units.Time(100 * units.Microsecond)
	c.OnCNP(t0)
	rt := c.rt
	// One increase interval later: Rc moves halfway toward Rt.
	want := (c.rc + rt) / 2
	c.OnAck(t0.Add(cfg.RateIncInterval), nil, 0)
	got := c.rc
	if got < 0.99*want || got > 1.01*want {
		t.Fatalf("fast recovery rc = %v, want ~%v", got, want)
	}
}

// TestByteCounterStages pushes 10 MB byte-counter periods through
// OnSend at one instant (so no timer stage fires): a byte short of a
// period advances nothing, each full period advances the byte stage
// once and raises the rate.
func TestByteCounterStages(t *testing.T) {
	c := New(DefaultConfig())(env()).(*state)
	now := units.Time(100 * units.Microsecond)
	c.OnCNP(now)
	low := c.rc
	c.OnSend(now, 10*units.MB-1)
	if c.byteStage != 0 || c.rc != low {
		t.Fatalf("a byte short of 10 MB advanced the byte stage to %d (rate %v)", c.byteStage, c.rc)
	}
	c.OnSend(now, 1)
	for i := 1; i < 10; i++ {
		c.OnSend(now, 10*units.MB)
	}
	if c.byteStage != 10 || c.timerStage != 0 {
		t.Fatalf("10 periods of 10 MB: byte stage %d, timer stage %d, want 10 and 0", c.byteStage, c.timerStage)
	}
	if c.rc <= low {
		t.Fatalf("byte-counter stages did not raise the rate: %v", c.rc)
	}
}

func TestWindowFixedAtBDP(t *testing.T) {
	c := New(DefaultConfig())(env())
	if c.Window() != 63750 {
		t.Fatalf("window = %v, want one BDP", c.Window())
	}
	c.OnCNP(0)
	if c.Window() != 63750 {
		t.Fatal("DCQCN window must not react (rate-based protocol)")
	}
}

// TestStateSize pins the reaction point at 96 bytes: one is live per
// flow in flight, and a churn run holds tens of thousands.
func TestStateSize(t *testing.T) {
	if sz := unsafe.Sizeof(state{}); sz > 96 {
		t.Fatalf("state is %d bytes, want <= 96", sz)
	}
}
