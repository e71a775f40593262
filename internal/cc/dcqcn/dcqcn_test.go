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

func TestByteCounterStages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ByteCounter = 100 * units.KB
	c := New(cfg)(env()).(*state)
	c.OnCNP(units.Time(100 * units.Microsecond))
	low := c.rc
	// Push several byte-counter periods through OnSend.
	for i := 0; i < 10; i++ {
		c.OnSend(units.Time(100*units.Microsecond)+1, 100*units.KB)
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
