//lint:hotpath wheel insert/advance run once per simulated event

package sim

import "floodgate/internal/units"

// Hierarchical timing wheel (calendar-queue family; cf. Brown '88 and
// the ladder queues used by NS-3). Packet simulation schedules almost
// everything a serialization time or a propagation delay ahead — a few
// hundred nanoseconds — so a comparison-based heap pays O(log n) per
// event for ordering the queue far beyond the horizon it actually pops
// from. The wheel splits the queue three ways:
//
//	cur      — 4-ary min-heap of every entry with at < base+gran: the
//	           active bucket, the only structure pops touch.
//	buckets  — ring of unsorted slices; bucket (cursor+k)&mask holds
//	           entries with at in [base+k·gran, base+(k+1)·gran) for
//	           k in [1, bucketCount). Insertion is an append: O(1).
//	overflow — 4-ary min-heap for entries at or beyond base+horizon
//	           (RTOs, SYN retransmits, progress watchdogs), so far
//	           timers never inflate the near-horizon structures.
//
// When cur drains, the cursor advances one bucket (base += gran) and
// the next bucket's entries are heapified into cur — O(1) amortized
// per event. Each advance also migrates overflow entries that now fall
// inside the horizon into its far end; when cur and all buckets are
// empty but overflow is not, base jumps directly to the overflow
// head's timestamp (no idle bucket-by-bucket stepping).
//
// Ordering invariant (why tables stay bit-identical to SchedHeap):
// every cur entry is < base+gran, every bucket entry in [base+gran,
// base+horizon), every overflow entry ≥ base+horizon — so cur's root
// is always the global (time, seq) minimum, and since entries with
// equal timestamps always land in the same structure, the exact FIFO
// tie-break order is preserved. Post-jump schedules with at < base
// (base may run ahead of the clock after a jump) fall into cur via the
// signed d < gran comparison, keeping the invariant airtight.
const (
	// wheelGranShift sets bucket width to 2^17 ps ≈ 131 ns — the MTU
	// serialization time at 100 Gbps, the natural quantum between
	// consecutive departures on one port.
	wheelGranShift   = 17
	wheelGran        = units.Duration(1) << wheelGranShift
	wheelBucketCount = 1024 // power of two; horizon ≈ 134 µs
	wheelMask        = wheelBucketCount - 1
	wheelHorizon     = wheelGran * wheelBucketCount
)

// Scheduler selects the event-queue implementation behind an Engine.
// The zero value is the default.
type Scheduler uint8

const (
	// SchedWheel is the hierarchical timing wheel (default).
	SchedWheel Scheduler = iota
	// SchedHeap is the reference single global 4-ary heap: the wheel
	// with an unbounded active bucket, so every entry lives in cur and
	// none of the bucket, overflow or advance logic ever runs. Same
	// execution order; kept as the oracle the wheel is checked against
	// (TestCrossSchedulerIdenticalOrder) and as the bench ledger's
	// sim.replay_heap_ns_per_event rung.
	SchedHeap
)

func (s Scheduler) String() string {
	switch s {
	case SchedWheel:
		return "wheel"
	case SchedHeap:
		return "heap"
	}
	return "unknown"
}

// insertWheel files one entry. d is signed: entries behind base (legal
// after a horizon jump) belong in cur with everything else below
// base+near.
func (e *Engine) insertWheel(ent heapEnt) {
	d := int64(ent.at) - int64(e.base)
	switch {
	case d < e.near:
		entPush(&e.cur, ent)
	case d < int64(wheelHorizon):
		idx := (e.cursor + int(d>>wheelGranShift)) & wheelMask
		e.buckets[idx] = append(e.buckets[idx], ent)
		e.wheelCnt++
	default:
		entPush(&e.overflow, ent)
	}
}

// peekWheel returns the (time, seq)-minimum queued entry, dead or live,
// surfacing it into cur[0]: the cursor advances over empty spans and
// the overflow heap engages as needed. The advance only moves internal
// cursors — it never executes events or touches the clock — so peeking
// is observationally idempotent.
func (e *Engine) peekWheel() (heapEnt, bool) {
	for {
		if len(e.cur) > 0 {
			return e.cur[0], true
		}
		if e.wheelCnt > 0 {
			e.advanceBucket()
			continue
		}
		if len(e.overflow) > 0 {
			e.jumpToOverflow()
			continue
		}
		return heapEnt{}, false
	}
}

// advanceBucket moves the active span one granule forward: the next
// bucket's entries become cur, and overflow timers that the horizon
// now covers migrate into its far end (always the span [base+horizon-
// gran, base+horizon), i.e. the just-vacated ring slot — never cur, so
// the swap below cannot discard them).
func (e *Engine) advanceBucket() {
	e.cursor = (e.cursor + 1) & wheelMask
	e.base = e.base.Add(wheelGran)
	end := e.base.Add(wheelHorizon)
	for len(e.overflow) > 0 && e.overflow[0].at < end {
		ent := e.overflow[0]
		entPop(&e.overflow)
		e.placeNear(ent)
	}
	b := e.buckets[e.cursor]
	if len(b) == 0 {
		return
	}
	e.wheelCnt -= len(b)
	// Swap slices so the drained bucket donates its capacity back.
	e.cur, e.buckets[e.cursor] = b, e.cur[:0]
	entHeapInit(e.cur)
}

// jumpToOverflow handles the idle-wheel case: cur and every bucket are
// empty, so rather than stepping granule by granule toward the next
// far timer, rebase the wheel at its timestamp and migrate everything
// within the new horizon. The head itself lands in cur (d = 0), so
// progress is guaranteed.
func (e *Engine) jumpToOverflow() {
	e.base = e.overflow[0].at
	end := e.base.Add(wheelHorizon)
	for len(e.overflow) > 0 && e.overflow[0].at < end {
		ent := e.overflow[0]
		entPop(&e.overflow)
		e.placeNear(ent)
	}
}

// placeNear files an entry already known to be below base+horizon.
func (e *Engine) placeNear(ent heapEnt) {
	d := int64(ent.at) - int64(e.base)
	if d < int64(wheelGran) {
		entPush(&e.cur, ent)
		return
	}
	idx := (e.cursor + int(d>>wheelGranShift)) & wheelMask
	e.buckets[idx] = append(e.buckets[idx], ent)
	e.wheelCnt++
}

// compactWheel sweeps dead entries out of every wheel structure. Bucket
// order is append order and is preserved; cur and overflow are
// re-heapified, which cannot change pop order (the comparator is a
// strict total order, so the heap minimum is arrangement-independent).
func (e *Engine) compactWheel() {
	e.cur = e.filterLive(e.cur)
	entHeapInit(e.cur)
	e.overflow = e.filterLive(e.overflow)
	entHeapInit(e.overflow)
	e.wheelCnt = 0
	for i := range e.buckets {
		if len(e.buckets[i]) == 0 {
			continue
		}
		e.buckets[i] = e.filterLive(e.buckets[i])
		e.wheelCnt += len(e.buckets[i])
	}
	e.entCnt = len(e.cur) + e.wheelCnt + len(e.overflow)
}
