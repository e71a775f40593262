package cc_test

import (
	"reflect"
	"testing"

	"floodgate/internal/cc"
	"floodgate/internal/cc/dcqcn"
	"floodgate/internal/cc/dctcp"
	"floodgate/internal/cc/hpcc"
	"floodgate/internal/cc/swift"
	"floodgate/internal/cc/timely"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

func env() cc.Env {
	rtt := units.Duration(51) * units.Microsecond / 10 // 5.1us
	rate := 100 * units.Gbps
	return cc.Env{LinkRate: rate, BaseRTT: rtt, BDP: units.BDP(rate, rtt)}
}

func TestFixedWindow(t *testing.T) {
	c := cc.NewFixedWindow()(env())
	if c.Rate() != 100*units.Gbps {
		t.Fatalf("rate = %v", c.Rate())
	}
	if c.Window() != 63750 {
		t.Fatalf("window = %v", c.Window())
	}
	c.OnCNP(0)
	c.OnAck(0, nil, units.Microsecond)
	if c.Rate() != 100*units.Gbps {
		t.Fatal("fixed window must not react")
	}
}

func TestDCQCNStartsAtLineRate(t *testing.T) {
	c := dcqcn.Default()(env())
	if c.Rate() != 100*units.Gbps {
		t.Fatalf("initial rate = %v", c.Rate())
	}
	// Without congestion, acks over time must not reduce the rate.
	for i := 1; i <= 100; i++ {
		c.OnAck(units.Time(i)*units.Time(units.Microsecond), nil, 5*units.Microsecond)
	}
	if c.Rate() != 100*units.Gbps {
		t.Fatalf("uncongested rate drifted to %v", c.Rate())
	}
}

func TestDCQCNDecreaseOnCNP(t *testing.T) {
	c := dcqcn.Default()(env())
	c.OnCNP(units.Time(100 * units.Microsecond))
	r := c.Rate()
	// alpha starts at 1 -> first cut halves the rate.
	if r != 50*units.Gbps {
		t.Fatalf("rate after first CNP = %v, want 50Gbps", r)
	}
	// Successive CNPs keep cutting (alpha stays high under persistent
	// congestion).
	c.OnCNP(units.Time(200 * units.Microsecond))
	if c.Rate() >= r {
		t.Fatalf("rate did not decrease further: %v", c.Rate())
	}
}

func TestDCQCNRecovery(t *testing.T) {
	c := dcqcn.Default()(env())
	t0 := units.Time(100 * units.Microsecond)
	c.OnCNP(t0)
	low := c.Rate()
	// Quiet period: lazy timers should walk the rate back up toward line
	// rate (fast recovery halves toward target = pre-cut rate).
	c.OnAck(t0.Add(2*units.Millisecond), nil, 5*units.Microsecond)
	rec := c.Rate()
	if rec <= low {
		t.Fatalf("no recovery: %v -> %v", low, rec)
	}
	if rec > 100*units.Gbps {
		t.Fatalf("recovered beyond line rate: %v", rec)
	}
	// After a long time, hyper increase must reach line rate.
	c.OnAck(t0.Add(200*units.Millisecond), nil, 5*units.Microsecond)
	if c.Rate() != 100*units.Gbps {
		t.Fatalf("rate after long recovery = %v, want line rate", c.Rate())
	}
}

func TestDCQCNRateFloor(t *testing.T) {
	c := dcqcn.Default()(env())
	for i := 0; i < 200; i++ {
		c.OnCNP(units.Time(i+1) * units.Time(100*units.Microsecond))
	}
	if c.Rate() < 100*units.Mbps {
		t.Fatalf("rate fell through floor: %v", c.Rate())
	}
}

func TestTimelyAdditiveIncreaseBelowTlow(t *testing.T) {
	f := timely.Default()
	c := f(env())
	c.OnCNP(0) // no-op
	// Two samples below Tlow: first primes prevRTT, second increases.
	c.OnAck(0, nil, 6*units.Microsecond)
	base := c.Rate()
	c.OnAck(0, nil, 6*units.Microsecond)
	if c.Rate() <= base-units.BitRate(1) && c.Rate() != 100*units.Gbps {
		t.Fatalf("rate did not increase below Tlow: %v", c.Rate())
	}
}

func TestTimelyDecreaseAboveThigh(t *testing.T) {
	c := timely.Default()(env())
	c.OnAck(0, nil, 10*units.Microsecond)
	c.OnAck(0, nil, 300*units.Microsecond) // way above Thigh (25.5us)
	if c.Rate() >= 100*units.Gbps {
		t.Fatalf("rate did not decrease above Thigh: %v", c.Rate())
	}
}

func TestTimelyGradientDecrease(t *testing.T) {
	c := timely.Default()(env())
	// Rising RTT inside [Tlow, Thigh]: positive gradient -> decrease.
	c.OnAck(0, nil, 10*units.Microsecond)
	c.OnAck(0, nil, 14*units.Microsecond)
	c.OnAck(0, nil, 18*units.Microsecond)
	if c.Rate() >= 100*units.Gbps {
		t.Fatalf("rate did not decrease on positive gradient: %v", c.Rate())
	}
	low := c.Rate()
	// Falling RTT: negative gradient -> recover.
	for i := 0; i < 20; i++ {
		c.OnAck(0, nil, 9*units.Microsecond)
	}
	if c.Rate() <= low {
		t.Fatalf("rate did not recover on negative gradient: %v", c.Rate())
	}
}

func ackWithInt(hops []packet.IntHop) *packet.Packet {
	p := packet.NewCtrl(1, packet.Ack, 1, 0, 1)
	p.Int = hops
	return p
}

func TestHPCCHoldsWindowWhenIdle(t *testing.T) {
	c := hpcc.Default()(env())
	w0 := c.Window()
	if w0 != 63750 {
		t.Fatalf("initial window = %v", w0)
	}
	if c.Rate() <= 0 || c.Rate() > 100*units.Gbps {
		t.Fatalf("rate out of range: %v", c.Rate())
	}
}

func TestHPCCDecreasesOnHighUtilisation(t *testing.T) {
	c := hpcc.Default()(env())
	mk := func(ts units.Time, tx, qlen units.ByteSize) []packet.IntHop {
		return []packet.IntHop{{TxBytes: tx, QLen: qlen, TS: ts, LinkRate: 100 * units.Gbps}}
	}
	// Reference sample, then a sample showing a saturated link with a
	// deep queue: utilisation >> eta, window must shrink.
	c.OnAck(units.Time(10*units.Microsecond), ackWithInt(mk(units.Time(10*units.Microsecond), 0, 500*units.KB)), 0)
	c.OnAck(units.Time(20*units.Microsecond), ackWithInt(mk(units.Time(20*units.Microsecond), 125*units.KB, 500*units.KB)), 0)
	if c.Window() >= 63750 {
		t.Fatalf("window did not shrink under congestion: %v", c.Window())
	}
}

func TestHPCCGrowsOnLowUtilisation(t *testing.T) {
	c := hpcc.Default()(env())
	mk := func(ts units.Time, tx units.ByteSize) []packet.IntHop {
		return []packet.IntHop{{TxBytes: tx, QLen: 0, TS: ts, LinkRate: 100 * units.Gbps}}
	}
	c.OnAck(units.Time(10*units.Microsecond), ackWithInt(mk(units.Time(10*units.Microsecond), 0)), 0)
	// Nearly idle link: tiny tx, empty queue.
	c.OnAck(units.Time(20*units.Microsecond), ackWithInt(mk(units.Time(20*units.Microsecond), 1*units.KB)), 0)
	w1 := c.Window()
	if w1 <= 63750 {
		t.Fatalf("window did not grow on idle link: %v", w1)
	}
}

func TestHPCCWindowFloor(t *testing.T) {
	c := hpcc.Default()(env())
	mk := func(ts units.Time, tx, q units.ByteSize) []packet.IntHop {
		return []packet.IntHop{{TxBytes: tx, QLen: q, TS: ts, LinkRate: 100 * units.Gbps}}
	}
	tx := units.ByteSize(0)
	for i := 1; i <= 100; i++ {
		ts := units.Time(i) * units.Time(10*units.Microsecond)
		tx += 125 * units.KB
		c.OnAck(ts, ackWithInt(mk(ts, tx, units.MB)), 0)
	}
	if c.Window() < packet.MTU {
		t.Fatalf("window fell below one MTU: %v", c.Window())
	}
	if c.Rate() <= 0 {
		t.Fatalf("rate must stay positive: %v", c.Rate())
	}
}

// TestResetEqualsFresh: for every controller, Reset(env) after an
// arbitrary feedback history leaves exactly the state the factory
// builds for env — the contract that lets device recycle a finished
// flow's controller for the next flow.
func TestResetEqualsFresh(t *testing.T) {
	factories := map[string]cc.Factory{
		"fixed":  cc.NewFixedWindow(),
		"dcqcn":  dcqcn.Default(),
		"dctcp":  dctcp.Default(),
		"hpcc":   hpcc.Default(),
		"swift":  swift.Default(),
		"timely": timely.Default(),
	}
	other := cc.Env{LinkRate: 25 * units.Gbps, BaseRTT: 8 * units.Microsecond}
	other.BDP = units.BDP(other.LinkRate, other.BaseRTT)
	for name, factory := range factories {
		c := factory(env())
		fresh := factory(env())
		var now units.Time
		var acked, tx units.ByteSize
		for i := 0; i < 400; i++ {
			now = now.Add(units.Duration(1+i%7) * units.Microsecond)
			c.OnSend(now, packet.MTU)
			acked += packet.MTU
			tx += units.ByteSize(900 + 40*(i%11))
			ack := &packet.Packet{Kind: packet.Ack, AckSeq: acked, EchoECN: i%3 == 0,
				Int: []packet.IntHop{{QLen: units.ByteSize(i%9) * 20 * units.KB, TxBytes: tx, TS: now, LinkRate: 100 * units.Gbps}}}
			c.OnAck(now, ack, units.Duration(4+i%40)*units.Microsecond)
			if i%13 == 0 {
				c.OnCNP(now)
			}
		}
		if name != "fixed" && reflect.DeepEqual(c, fresh) { // FixedWindow never reacts
			t.Errorf("%s: the history left no trace; the test exercises nothing", name)
		}
		c.Reset(env())
		if !reflect.DeepEqual(c, fresh) {
			t.Errorf("%s: Reset(env) = %+v, fresh = %+v", name, c, fresh)
		}
		c.Reset(other)
		if want := factory(other); !reflect.DeepEqual(c, want) {
			t.Errorf("%s: Reset(other env) = %+v, fresh = %+v", name, c, want)
		}
	}
}
