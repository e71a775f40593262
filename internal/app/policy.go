package app

import (
	"math/bits"
	"sort"

	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/units"
)

// RetryPolicy decides how long a client waits after a deadline expiry
// before launching the next attempt. Implementations must be pure
// functions of (attempt, r): all randomness comes from r, the calling
// client's private deterministic stream, so backoff schedules are
// bit-identical across shard counts, parallelism and schedulers.
type RetryPolicy interface {
	// Name labels the policy in experiment tables.
	Name() string
	// Backoff returns the delay before launching attempt (>= 2).
	Backoff(attempt int, r *sim.Rand) units.Duration
}

// Hedger is the optional hedging extension of a RetryPolicy: when the
// policy implements it, every request's first attempt also arms a
// hedge timer; if the request is still unresolved when it fires (and
// budget remains), a second attempt is launched to race the first
// without waiting for the deadline.
type Hedger interface {
	// HedgeDelay returns how long after launch the hedge fires. p95 is
	// the client's observed request-latency p95 over samples completed
	// requests (0 until the first completion).
	HedgeDelay(deadline, p95 units.Duration, samples int) units.Duration
}

// FixedRetry retries at once.
type FixedRetry struct{}

// Name implements RetryPolicy.
func (FixedRetry) Name() string { return "fixed" }

// Backoff implements RetryPolicy.
func (FixedRetry) Backoff(int, *sim.Rand) units.Duration { return 0 }

// backoffCap caps ExpBackoff's nominal delay at this multiple of Base.
const backoffCap = 8

// ExpBackoff doubles the delay per attempt with deterministic full
// jitter: attempt k waits uniformly in [d/2, d] for d = Base·2^(k-2)
// capped at backoffCap·Base. The jitter decorrelates the retries of
// requests that timed out on the same incast — without it they re-fire
// in lockstep and rebuild the very burst that killed attempt one.
type ExpBackoff struct {
	Base units.Duration // attempt-2 delay before jitter
}

// Name implements RetryPolicy.
func (ExpBackoff) Name() string { return "expbackoff" }

// Backoff implements RetryPolicy.
func (p ExpBackoff) Backoff(attempt int, r *sim.Rand) units.Duration {
	base := p.Base
	if base <= 0 {
		base = 100 * units.Microsecond
	}
	max := backoffCap * base
	d := base
	for k := 2; k < attempt && d < max; k++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + units.Duration(r.Int63n(int64(half)+1))
}

// Hedged races a second attempt at the client's observed p95 request
// latency (deadline/2 until hedgeMinSamples completions accumulate);
// deadline expiries still back off exponentially via the embedded
// policy.
type Hedged struct {
	ExpBackoff
}

// hedgeMinSamples is how many completions are needed before trusting
// the observed p95.
const hedgeMinSamples = 8

// Name implements RetryPolicy.
func (Hedged) Name() string { return "hedged" }

// HedgeDelay implements Hedger.
func (Hedged) HedgeDelay(deadline, p95 units.Duration, samples int) units.Duration {
	if samples < hedgeMinSamples || p95 <= 0 {
		return deadline / 2
	}
	return p95
}

// latWindow is the client's sliding window of completed-request
// latencies, sized for cheap exact p95s.
type latWindow struct {
	buf [32]units.Duration
	idx int
	n   int
}

func (w *latWindow) add(d units.Duration) {
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// p95 returns the nearest-rank p95 of the window (0 when empty). The
// sort runs over a stack copy in deterministic ring order, so the
// result depends only on the observation sequence.
func (w *latWindow) p95() units.Duration {
	var tmp [32]units.Duration
	vals := tmp[:w.n]
	copy(vals, w.buf[:w.n])
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return stats.NearestRank(vals, 950)
}

// The breaker's fixed binding: it opens when breakerThreshold of the
// last breakerWindow attempt outcomes timed out.
const (
	breakerWindow    = 8
	breakerThreshold = 0.75
)

// breakerState is the client's circuit breaker: a ring of recent
// attempt outcomes, one bit each; when the timeout fraction over a full
// window reaches breakerThreshold the breaker opens until now+cooldown,
// and the plane sheds arrivals (and suppresses retries) while it is
// open.
type breakerState struct {
	cooldown  units.Duration // 0: the breaker is off
	outcomes  uint8          // the last n outcomes, newest in bit 0; 1 = timeout
	n         int
	openUntil units.Time
}

// open reports whether the breaker is shedding at time now.
func (b *breakerState) open(now units.Time) bool { return b.openUntil > now }

// record feeds one attempt outcome and opens the breaker when a full
// window's timeout fraction reaches the threshold. The ring resets on
// open so the cooldown starts from a clean slate.
func (b *breakerState) record(timeout bool, now units.Time) {
	if b.cooldown == 0 {
		return
	}
	b.outcomes <<= 1
	if timeout {
		b.outcomes |= 1
	}
	if b.n < breakerWindow {
		b.n++
	}
	if b.n == breakerWindow && bits.OnesCount8(b.outcomes) >= breakerThreshold*breakerWindow {
		b.openUntil = now.Add(b.cooldown)
		b.outcomes, b.n = 0, 0
	}
}
