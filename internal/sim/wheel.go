//lint:hotpath wheel insert/advance run once per simulated event

package sim

import (
	"math/bits"

	"floodgate/internal/units"
)

// Hierarchical timing wheel (calendar-queue family; cf. Brown '88 and
// the ladder queues used by NS-3). Packet simulation schedules almost
// everything a serialization time or a propagation delay ahead — a few
// hundred nanoseconds — so a comparison-based heap pays O(log n) per
// event for ordering the queue far beyond the horizon it actually pops
// from. The wheel splits the queue four ways:
//
//	cur      — 4-ary min-heap of every entry with at < base+near: the
//	           active sub-bucket, the only structure pops touch.
//	fine     — the ladder rung: the active granule [base, base+gran)
//	           cut into 64 unsorted sub-buckets of 2^11 ps ≈ 2 ns;
//	           fine[k] holds at in [base+k·2^11, base+(k+1)·2^11) for
//	           every k at or beyond near. Occupancy is one uint64.
//	ring     — 1024 unsorted buckets; bucket (cursor+k)&mask holds
//	           entries with at in [base+k·gran, base+(k+1)·gran) for
//	           k in [1, bucketCount). Insertion is an append: O(1).
//	           A bucket is a chain of chunks on one LIFO free list, so
//	           the ring retains the backlog, not each bucket's worst burst.
//	overflow — 4-ary min-heap for entries at or beyond base+horizon
//	           (RTOs, SYN retransmits, progress watchdogs), so far
//	           timers never inflate the near-horizon structures.
//
// When cur drains, the rung's first occupied sub-bucket is heapified
// into cur (near moves to its end); when the rung is empty too, the
// cursor advances one bucket (base += gran, near = 0) and the next
// bucket's entries spread over the rung — O(1) amortized per event. A
// busy fabric queues 300–600 entries per granule, so without the rung
// cur is as deep as the global heap the wheel replaced; with it cur
// holds ≈10 (DESIGN.md §3, which also records why a single-level 8 ns
// wheel loses). Each advance also migrates overflow entries that
// now fall inside the horizon into its far end; when everything nearer
// is empty but overflow is not, base jumps directly to the overflow
// head's timestamp (no idle bucket-by-bucket stepping).
//
// Ordering invariant (why tables stay bit-identical to SchedHeap):
// every cur entry is < base+near, every fine entry in [base+near,
// base+gran) and in the sub-bucket its timestamp names, every bucket
// entry in [base+gran, base+horizon), every overflow entry ≥
// base+horizon — so whenever cur is non-empty its root is the global
// (time, seq) minimum, and since entries with equal timestamps always
// land in the same structure, the exact FIFO tie-break order is
// preserved. Schedules with at < base+near (base may run ahead of the
// clock after a jump, near after a peek) fall into cur via the signed
// d < near comparison, keeping the invariant airtight.
const (
	// wheelGranShift sets bucket width to 2^17 ps ≈ 131 ns — the MTU
	// serialization time at 100 Gbps, the natural quantum between
	// consecutive departures on one port.
	wheelGranShift   = 17
	wheelGran        = units.Duration(1) << wheelGranShift
	wheelBucketCount = 1024 // power of two; horizon ≈ 134 µs
	wheelMask        = wheelBucketCount - 1
	wheelHorizon     = wheelGran * wheelBucketCount

	// fineShift sets the rung's sub-bucket width to 2^11 ps ≈ 2 ns:
	// 64 of them tile one granule, so one uint64 tracks occupancy.
	fineShift = 11
	fineCount = 1 << (wheelGranShift - fineShift)
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
	case d < int64(wheelGran):
		e.fileFine(ent, d)
	case d < int64(wheelHorizon):
		c := &e.ring[(e.cursor+int(d>>wheelGranShift))&wheelMask]
		t := &e.chunks[c.tail]
		if t.n == chunkLen {
			t = e.extend(c)
		}
		t.ents[t.n] = ent
		t.n++
		e.wheelCnt++
	default:
		entPush(&e.overflow, ent)
	}
}

// A ring bucket chains pointer-free chunks by slab index; chunk 0 reads
// full (it is an empty chain's tail). Freed chunks go on a LIFO list.
const chunkLen = 64 // entries per chunk: 64 × 24 B ≈ 1.5 KB

type chunk struct {
	ents    [chunkLen]heapEnt
	next, n int32
}

type chain struct{ head, tail int32 }

// extend links the free list's top chunk, or a new one, onto c.
func (e *Engine) extend(c *chain) *chunk {
	k := e.freeChunk
	if k == 0 {
		e.chunks = append(e.chunks, chunk{})
		k = int32(len(e.chunks) - 1)
	} else {
		e.freeChunk, e.chunks[k].next, e.chunks[k].n = e.chunks[k].next, 0, 0
	}
	e.chunks[c.tail].next, c.tail = k, k // chunk 0's next is never read
	if c.head == 0 {
		c.head = k
	}
	return &e.chunks[k]
}

// freeChain splices c's chunks onto the free list and empties c.
func (e *Engine) freeChain(c *chain) {
	if c.head != 0 {
		e.chunks[c.tail].next, e.freeChunk = e.freeChunk, c.head
		*c = chain{}
	}
}

// fileFine appends an entry d past base, near ≤ d < gran, to the rung.
func (e *Engine) fileFine(ent heapEnt, d int64) {
	k := uint(d >> fineShift)
	e.fine[k] = append(e.fine[k], ent)
	e.fineOcc |= 1 << k
	e.fineCnt++
}

// peekWheel returns the (time, seq)-minimum queued entry, dead or live,
// surfacing it into cur[0]: the rung and the cursor advance over empty
// spans and the overflow heap engages as needed. The advance only moves
// internal cursors — it never executes events or touches the clock — so
// peeking is observationally idempotent.
func (e *Engine) peekWheel() (heapEnt, bool) {
	for {
		switch {
		case len(e.cur) > 0:
			return e.cur[0], true
		case e.fineOcc != 0:
			e.advanceFine()
		case e.wheelCnt > 0:
			e.advanceBucket()
		case len(e.overflow) > 0:
			e.jumpToOverflow()
		default:
			return heapEnt{}, false
		}
	}
}

// advanceFine makes the rung's first occupied sub-bucket the active
// heap. Inserts below near go to cur, so no occupied sub-bucket ever
// lies behind it and the lowest set bit is the next span in time.
func (e *Engine) advanceFine() {
	k := bits.TrailingZeros64(e.fineOcc)
	e.fineOcc &^= 1 << uint(k)
	e.near = int64(k+1) << fineShift
	// Swap slices so the spent heap donates its capacity to the rung.
	e.cur, e.fine[k] = e.fine[k], e.cur[:0]
	e.fineCnt -= len(e.cur)
	entHeapInit(e.cur)
}

// advanceBucket moves the active span one granule forward (cur and the
// rung are empty): the next bucket's entries spread over the rung, and
// overflow timers that the horizon now covers migrate into its far end
// (always the span [base+horizon-gran, base+horizon), i.e. the
// just-vacated ring slot — never the bucket being spread).
func (e *Engine) advanceBucket() {
	e.cursor = (e.cursor + 1) & wheelMask
	e.base = e.base.Add(wheelGran)
	e.near = 0
	e.migrateOverflow()
	c, base := &e.ring[e.cursor], int64(e.base)
	for k := c.head; k != 0; k = e.chunks[k].next {
		t := &e.chunks[k]
		for _, ent := range t.ents[:t.n] {
			e.fileFine(ent, int64(ent.at)-base)
		}
		e.wheelCnt -= int(t.n)
	}
	e.freeChain(c)
}

// jumpToOverflow handles the idle-wheel case: cur, the rung and every
// bucket are empty, so rather than stepping granule by granule toward
// the next far timer, rebase the wheel at its timestamp and migrate
// everything within the new horizon. The head itself lands in the
// rung's first sub-bucket (d = 0), so progress is guaranteed.
func (e *Engine) jumpToOverflow() {
	e.base = e.overflow[0].at
	e.near = 0
	e.migrateOverflow()
}

// migrateOverflow refiles every overflow entry the horizon now covers.
func (e *Engine) migrateOverflow() {
	end := e.base.Add(wheelHorizon)
	for len(e.overflow) > 0 && e.overflow[0].at < end {
		ent := e.overflow[0]
		entPop(&e.overflow)
		e.insertWheel(ent)
	}
}

// compactWheel sweeps dead entries out of every wheel structure. Bucket
// and sub-bucket order is append order and is preserved (a sub-bucket
// swept empty keeps its occupancy bit: advanceFine then activates an
// empty heap and peekWheel moves on); cur and overflow are
// re-heapified, which cannot change pop order (the comparator is a
// strict total order, so the heap minimum is arrangement-independent).
func (e *Engine) compactWheel() {
	e.cur = e.filterLive(e.cur)
	entHeapInit(e.cur)
	e.overflow = e.filterLive(e.overflow)
	entHeapInit(e.overflow)
	e.fineCnt = 0
	for occ := e.fineOcc; occ != 0; occ &= occ - 1 {
		k := bits.TrailingZeros64(occ)
		e.fine[k] = e.filterLive(e.fine[k])
		e.fineCnt += len(e.fine[k])
	}
	// Pack each bucket's survivors toward its head in order (the write
	// point w, n trails the read) and free the chunks past w.
	e.wheelCnt = 0
	for i := range e.ring {
		c := &e.ring[i]
		if c.head == 0 {
			continue
		}
		w, n := c.head, int32(0)
		for r := c.head; r != 0; r = e.chunks[r].next {
			t := &e.chunks[r]
			for _, ent := range t.ents[:t.n] {
				if e.events[ent.slot].gen == ent.gen {
					if n == chunkLen {
						w, n = e.chunks[w].next, 0
					}
					e.chunks[w].ents[n] = ent
					n++
					e.wheelCnt++
				}
			}
		}
		rest := chain{e.chunks[w].next, c.tail}
		e.chunks[w].next, e.chunks[w].n, c.tail = 0, n, w
		e.freeChain(&rest)
	}
	e.entCnt = len(e.cur) + e.fineCnt + e.wheelCnt + len(e.overflow)
}
