package app

import (
	"testing"

	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

func testTopo() *topo.Topology {
	return topo.LeafSpineConfig{
		Spines: 2, ToRs: 4, HostsPerToR: 4,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: units.Microsecond,
	}.Build()
}

// TestExpBackoffDeterministic: two forks of the same stream must
// produce the same jittered backoff sequence — the property the
// per-client jitter streams rely on for cross-shard bit-identity.
func TestExpBackoffDeterministic(t *testing.T) {
	p := ExpBackoff{Base: 100 * units.Microsecond}
	r1 := sim.NewRand(7)
	r2 := sim.NewRand(7)
	for attempt := 2; attempt <= 6; attempt++ {
		a, b := p.Backoff(attempt, r1), p.Backoff(attempt, r2)
		if a != b {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, a, b)
		}
		if a <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, a)
		}
		if a > backoffCap*p.Base {
			t.Fatalf("attempt %d: backoff %v above cap %v", attempt, a, backoffCap*p.Base)
		}
	}
}

// TestExpBackoffGrows: the un-jittered floor (half the nominal delay)
// must grow geometrically until the cap, which attempt 5 reaches.
func TestExpBackoffGrows(t *testing.T) {
	p := ExpBackoff{Base: 100 * units.Microsecond}
	r := sim.NewRand(1)
	prev := units.Duration(0)
	for attempt := 2; attempt <= 5; attempt++ {
		d := p.Backoff(attempt, r)
		nominal := p.Base << (attempt - 2)
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		if d <= prev/4 {
			t.Fatalf("attempt %d: backoff %v collapsed vs previous %v", attempt, d, prev)
		}
		prev = d
	}
}

// TestFixedRetryIgnoresRand: the fixed policy retries at once and must
// not consume the jitter stream (a nil stream is fine).
func TestFixedRetryIgnoresRand(t *testing.T) {
	for attempt := 2; attempt <= MaxAttempts; attempt++ {
		if d := (FixedRetry{}).Backoff(attempt, nil); d != 0 {
			t.Fatalf("attempt %d: fixed backoff = %v, want 0", attempt, d)
		}
	}
}

// TestHedgedDelay: below the sample floor the hedge fires at half the
// deadline; with enough samples it tracks the observed p95.
func TestHedgedDelay(t *testing.T) {
	p := Hedged{}
	dl := 400 * units.Microsecond
	if d := p.HedgeDelay(dl, 123*units.Microsecond, 2); d != dl/2 {
		t.Fatalf("cold hedge delay = %v, want %v", d, dl/2)
	}
	if d := p.HedgeDelay(dl, 123*units.Microsecond, 50); d != 123*units.Microsecond {
		t.Fatalf("warm hedge delay = %v, want observed p95", d)
	}
}

// TestBreakerOpensAndCoolsDown drives the 8-outcome ring through a
// failure burst: it must stay closed until a full window is observed,
// open once 6 of the 8 timed out, shed during the cooldown, and admit
// again after.
func TestBreakerOpensAndCoolsDown(t *testing.T) {
	const cooldown = units.Millisecond
	b := breakerState{cooldown: cooldown}
	now := units.Time(0)
	// Two successes, then timeouts: the window fills at the eighth
	// outcome, the sixth timeout.
	b.record(false, now)
	b.record(false, now)
	for i := 0; i < 5; i++ {
		b.record(true, now)
		if b.open(now) {
			t.Fatalf("breaker opened before a full window (after %d outcomes)", i+3)
		}
	}
	b.record(true, now)
	if !b.open(now) {
		t.Fatal("breaker closed after 6/8 timeouts at threshold 0.75")
	}
	if b.open(now.Add(cooldown)) {
		t.Fatal("breaker still open after the cooldown elapsed")
	}
	// The ring reset on open: seven more timeouts do not fill it.
	for i := 0; i < 7; i++ {
		b.record(true, now.Add(cooldown))
	}
	if b.open(now.Add(cooldown)) {
		t.Fatal("breaker re-opened before a fresh full window after reset")
	}
}

// TestBreakerBelowThresholdStaysClosed: 5 timeouts in every 8-outcome
// window, under the 0.75 threshold, never open the breaker; a zero
// cooldown turns it off even at 8/8.
func TestBreakerBelowThresholdStaysClosed(t *testing.T) {
	b := breakerState{cooldown: units.Millisecond}
	pattern := []bool{true, false, true, true, false, true, false, true}
	for i := 0; i < 3*len(pattern); i++ {
		b.record(pattern[i%len(pattern)], 0)
	}
	if b.open(0) {
		t.Fatal("breaker opened at a 5/8 timeout rate against a 75% threshold")
	}
	var off breakerState
	for i := 0; i < 2*breakerWindow; i++ {
		off.record(true, 0)
		if off.open(0) {
			t.Fatalf("a zero Breaker opened after %d timeouts", i+1)
		}
	}
}

// TestGenerateRequests pins the schedule's structural invariants: the
// one client is the host before the canonical incast destination (the
// last host), workers are all FanIn of them, distinct hosts outside
// the client's rack, arrivals are spaced by Interval, and the same
// (topo, config, seed) regenerates the same schedule.
func TestGenerateRequests(t *testing.T) {
	tp := testTopo()
	cfg := Config{
		Requests: 8, Interval: 100 * units.Microsecond,
		FanIn: 4, Deadline: units.Millisecond,
	}
	reqs := GenerateRequests(tp, cfg, 42)
	if len(reqs) != 8 {
		t.Fatalf("got %d requests, want 8", len(reqs))
	}
	client := tp.Hosts[len(tp.Hosts)-2]
	for i, rq := range reqs {
		if rq.Client != client {
			t.Fatalf("request %d: client %v, want %v, the host before the canonical incast destination", i, rq.Client, client)
		}
		if rq.Arrival != units.Time(int64(i)*int64(cfg.Interval)) {
			t.Fatalf("request %d: arrival %v, want Interval-spaced", i, rq.Arrival)
		}
		if len(rq.Workers) != 4 {
			t.Fatalf("request %d: fan %d, want 4", i, len(rq.Workers))
		}
		crack := tp.Node(rq.Client).Rack
		seen := map[int64]bool{}
		for _, w := range rq.Workers {
			if seen[int64(w)] {
				t.Fatalf("request %d: duplicate worker %v", i, w)
			}
			seen[int64(w)] = true
			if tp.Node(w).Rack == crack {
				t.Fatalf("request %d: worker %v in the client's rack", i, w)
			}
		}
		if len(rq.RespSize) != len(rq.Workers) {
			t.Fatalf("request %d: %d sizes for %d workers", i, len(rq.RespSize), len(rq.Workers))
		}
	}
	again := GenerateRequests(tp, cfg, 42)
	for i := range reqs {
		if reqs[i].Client != again[i].Client || reqs[i].Workers[0] != again[i].Workers[0] ||
			reqs[i].RespSize[0] != again[i].RespSize[0] {
			t.Fatalf("request %d: same seed regenerated a different schedule", i)
		}
	}
}

// TestLatWindowP95: nearest-rank p95 over the ring.
func TestLatWindowP95(t *testing.T) {
	var w latWindow
	for i := 1; i <= 20; i++ {
		w.add(units.Duration(i) * units.Microsecond)
	}
	if got := w.p95(); got != 19*units.Microsecond {
		t.Fatalf("p95 of 1..20us = %v, want 19us", got)
	}
}
