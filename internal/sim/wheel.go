//lint:hotpath wheel insert/advance run once per simulated event

package sim

import (
	"cmp"
	"math/bits"
	"slices"

	"floodgate/internal/units"
)

// Hierarchical timing wheel (calendar-queue family; cf. Brown '88 and
// the ladder queues used by NS-3). Packet simulation schedules almost
// everything a serialization time or a propagation delay ahead — a few
// hundred nanoseconds — so a comparison-based heap pays O(log n) per
// event for ordering the queue far beyond the horizon it actually pops
// from. The wheel splits the queue five ways:
//
//	run      — the active sub-bucket, sorted once by (at, seq) when it
//	           was activated; a pop advances runHead.
//	cur      — 4-ary min-heap of entries scheduled below base+near
//	           after the run was activated (an event that schedules
//	           within its own sub-bucket); a pop takes the smaller of
//	           run[runHead] and cur[0]. Under SchedHeap it is all of time.
//	fine     — the ladder rung: the active granule [base, base+gran)
//	           cut into 256 unsorted sub-buckets of 2^9 ps = 512 ps;
//	           sub-bucket k holds at in [base+k·2^9, base+(k+1)·2^9)
//	           for every k at or beyond near: its first fineInline
//	           entries in the engine (fineHead[k]), the rest in its
//	           chain fine[k]. Occupancy is four uint64 words and a
//	           summary word with bit w set while word w is non-zero.
//	ring     — 1024 unsorted buckets; bucket (cursor+k)&mask holds
//	           entries with at in [base+k·gran, base+(k+1)·gran) for
//	           k in [1, bucketCount). Insertion is an append: O(1).
//	overflow — 4-ary min-heap for entries at or beyond base+horizon
//	           (RTOs, SYN retransmits, progress watchdogs), so far
//	           timers never inflate the near-horizon structures.
//
// Ring buckets and the sub-buckets' spill are chains of chunks on one
// LIFO free list, so the rung and the ring retain the backlog, not each
// slot's worst burst. When the run and cur drain, the rung's first
// occupied sub-bucket becomes the run and is sorted once (near moves to
// its end): one that fits its inline head is sorted in place there, a
// longer one is copied into one reused slice and its chain freed. When
// the rung is empty too, the cursor advances one bucket (base += gran,
// near = 0) and the next bucket's entries spread over the rung — O(1)
// amortized per event. A busy fabric queues 300–600 entries per
// granule, a few per sub-bucket (3.8 per run on the §6 mix; DESIGN.md
// §3, which also records why a single-level 8 ns wheel loses). Each
// advance also migrates overflow entries that now fall inside the
// horizon into its far end; when everything nearer is empty but
// overflow is not, base jumps directly to the overflow head's timestamp
// (no idle bucket-by-bucket stepping).
//
// Ordering invariant (why tables stay bit-identical to SchedHeap):
// every run and cur entry is < base+near, every fine entry in
// [base+near, base+gran) and in the sub-bucket its timestamp names,
// every bucket entry in [base+gran, base+horizon), every overflow entry
// ≥ base+horizon — so the smaller of the run head and cur's root is the
// global (time, seq) minimum, and the exact FIFO tie-break order is
// preserved however equal timestamps split between the run and cur.
// Schedules with at < base+near (base may run ahead of the clock after
// a jump, near after a peek) fall into cur via the signed d < near
// comparison, keeping the invariant airtight.
const (
	// wheelGranShift sets bucket width to 2^17 ps ≈ 131 ns — the MTU
	// serialization time at 100 Gbps, the natural quantum between
	// consecutive departures on one port.
	wheelGranShift   = 17
	wheelGran        = units.Duration(1) << wheelGranShift
	wheelBucketCount = 1024 // power of two; horizon ≈ 134 µs
	wheelMask        = wheelBucketCount - 1
	wheelHorizon     = wheelGran * wheelBucketCount

	// fineShift sets the rung's sub-bucket width to 2^9 ps = 512 ps:
	// 256 of them tile one granule, so four uint64 words track
	// occupancy and a summary word tracks the words.
	fineShift = 9
	fineCount = 1 << (wheelGranShift - fineShift)
	fineWords = fineCount / 64

	// fineInline is how many entries a sub-bucket holds in the engine
	// itself before it spills into its chain: 9 runs in 10 on the §6
	// mix fit, so they are sorted and popped where they were filed.
	fineInline = 8

	// runSortMax is the longest run sorted by insertion: a sub-bucket
	// arrives in schedule order, nearly sorted already. Longer runs (a
	// same-timestamp start burst) go to slices.SortFunc.
	runSortMax = 32
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
		e.push(&e.ring[(e.cursor+int(d>>wheelGranShift))&wheelMask], ent)
		e.wheelCnt++
	default:
		entPush(&e.overflow, ent)
	}
}

// A bucket or sub-bucket chains pointer-free chunks by slab index
// (index 0 ends a chain). Every chunk but the tail is full; the chain
// keeps the tail's free room, so a push touches the chain and the
// entry's own cache line, never a chunk header. Freed chunks go on a
// LIFO list.
const chunkLen = 16 // entries per chunk: 16 × 24 B = 384 B

type chunk struct {
	next int32
	ents [chunkLen]heapEnt
}

// chain is a bucket: room is the tail chunk's free slots, so the empty
// chain (room 0) takes a chunk on its first push.
type chain struct{ head, tail, room int32 }

// fill is how many entries chunk k of c holds.
func (c *chain) fill(k int32) int {
	if k == c.tail {
		return chunkLen - int(c.room)
	}
	return chunkLen
}

// push appends ent to c's tail chunk, linking a new one when it is full.
func (e *Engine) push(c *chain, ent heapEnt) {
	if c.room == 0 {
		e.extend(c)
	}
	e.chunks[c.tail].ents[chunkLen-c.room] = ent
	c.room--
}

// extend links the free list's top chunk, or a new one, onto c.
func (e *Engine) extend(c *chain) {
	k := e.freeChunk
	if k == 0 {
		e.chunks = append(e.chunks, chunk{})
		k = int32(len(e.chunks) - 1)
	} else {
		e.freeChunk, e.chunks[k].next = e.chunks[k].next, 0
	}
	e.chunks[c.tail].next, c.tail, c.room = k, k, chunkLen // chunk 0's next is never read
	if c.head == 0 {
		c.head = k
	}
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
	k := uint8(d >> fineShift)
	if n := e.fineN[k]; n < fineInline {
		e.fineHead[k][n] = ent
		e.fineN[k] = n + 1
	} else {
		e.push(&e.fine[k], ent)
	}
	e.fineOcc[k>>6] |= 1 << (k & 63)
	e.fineSum |= 1 << (k >> 6)
	e.fineCnt++
}

// peekWheel returns the (time, seq)-minimum queued entry, dead or live:
// the smaller of the run head and cur's root, once the rung and the
// cursor have advanced over empty spans and the overflow heap has
// engaged as needed. The advance only moves internal cursors — it never
// executes events or touches the clock — so peeking is observationally
// idempotent.
func (e *Engine) peekWheel() (heapEnt, bool) {
	for {
		if e.runHead < len(e.run) {
			ent := e.run[e.runHead]
			if len(e.cur) > 0 && entLess(e.cur[0], ent) {
				return e.cur[0], true
			}
			return ent, true
		}
		switch {
		case len(e.cur) > 0:
			return e.cur[0], true
		case e.fineSum != 0:
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

// popWheel removes the entry peekWheel just returned.
func (e *Engine) popWheel(ent heapEnt) {
	if e.runHead < len(e.run) && e.run[e.runHead].seq == ent.seq {
		e.runHead++
	} else {
		entPop(&e.cur)
	}
}

// advanceFine makes the rung's first occupied sub-bucket the run (the
// run and cur are empty). Inserts below near go to cur, so no occupied
// sub-bucket ever lies behind it and the lowest set bit is the next
// span in time.
func (e *Engine) advanceFine() {
	w := bits.TrailingZeros64(e.fineSum)
	b := bits.TrailingZeros64(e.fineOcc[w])
	if e.fineOcc[w] &^= 1 << uint(b); e.fineOcc[w] == 0 {
		e.fineSum &^= 1 << uint(w)
	}
	k := w<<6 | b
	e.near = int64(k+1) << fineShift
	c, n := e.fine[k], e.fineN[k]
	e.fine[k], e.fineN[k] = chain{}, 0
	if c.head == 0 {
		// The run is sorted and popped in place: nothing files into
		// sub-bucket k again until the granule advances, and that
		// waits for the run to drain.
		e.run = e.fineHead[k][:n]
	} else {
		run := append(e.runBuf[:0], e.fineHead[k][:n]...)
		for i := c.head; i != 0; i = e.chunks[i].next {
			run = append(run, e.chunks[i].ents[:c.fill(i)]...)
		}
		e.freeChain(&c)
		e.run, e.runBuf = run, run
	}
	e.fineCnt -= len(e.run)
	sortRun(e.run)
	e.runHead = 0
}

// sortRun orders a run by (at, seq): by insertion when it is short (a
// chain's schedule order is nearly ascending, so each insert stops at
// once), else by slices.SortFunc.
func sortRun(s []heapEnt) {
	if len(s) > runSortMax {
		slices.SortFunc(s, entCmp)
		return
	}
	for i := 1; i < len(s); i++ {
		ent, j := s[i], i
		for ; j > 0 && entLess(ent, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = ent
	}
}

func entCmp(a, b heapEnt) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.seq, b.seq)
}

// advanceBucket moves the active span one granule forward (the run, cur
// and the rung are empty): the next bucket's entries spread over the
// rung, and overflow timers that the horizon now covers migrate into
// its far end (always the span [base+horizon-gran, base+horizon), i.e.
// the just-vacated ring slot — never the bucket being spread).
func (e *Engine) advanceBucket() {
	e.cursor = (e.cursor + 1) & wheelMask
	e.base = e.base.Add(wheelGran)
	e.near = 0
	e.migrateOverflow()
	c, base := &e.ring[e.cursor], int64(e.base)
	for k := c.head; k != 0; k = e.chunks[k].next {
		n := c.fill(k)
		for _, ent := range e.chunks[k].ents[:n] {
			e.fileFine(ent, int64(ent.at)-base)
		}
		e.wheelCnt -= n
	}
	e.freeChain(c)
}

// jumpToOverflow handles the idle-wheel case: the run, cur, the rung
// and every bucket are empty, so rather than stepping granule by
// granule toward the next far timer, rebase the wheel at its timestamp
// and migrate everything within the new horizon. The head itself lands
// in the rung's first sub-bucket (d = 0), so progress is guaranteed.
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

// compactWheel sweeps dead entries out of every wheel structure. The
// run's unconsumed tail, each sub-bucket and each bucket keep their
// order (a sub-bucket swept empty keeps its occupancy bit: advanceFine
// then activates an empty run and peekWheel moves on); cur and overflow
// are re-heapified, which cannot change pop order (the comparator is a
// strict total order, so the heap minimum is arrangement-independent).
func (e *Engine) compactWheel() {
	e.cur = e.filterLive(e.cur)
	entHeapInit(e.cur)
	e.overflow = e.filterLive(e.overflow)
	entHeapInit(e.overflow)
	n := copy(e.run, e.run[e.runHead:])
	e.run, e.runHead = e.filterLive(e.run[:n]), 0
	e.fineCnt = 0
	for i := range e.fine {
		h := e.filterLive(e.fineHead[i][:e.fineN[i]])
		e.fineN[i] = uint8(len(h))
		e.fineCnt += len(h) + e.packChain(&e.fine[i])
	}
	e.wheelCnt = 0
	for i := range e.ring {
		e.wheelCnt += e.packChain(&e.ring[i])
	}
	e.entCnt = len(e.cur) + len(e.run) + e.fineCnt + e.wheelCnt + len(e.overflow)
}

// packChain moves c's live entries toward its head in order (the write
// point w, n trails the read), frees the chunks past w and returns how
// many entries it kept.
func (e *Engine) packChain(c *chain) int {
	if c.head == 0 {
		return 0
	}
	w, n, kept := c.head, int32(0), 0
	for r := c.head; r != 0; r = e.chunks[r].next {
		for _, ent := range e.chunks[r].ents[:c.fill(r)] {
			if e.events[ent.slot].gen == ent.gen {
				if n == chunkLen {
					w, n = e.chunks[w].next, 0
				}
				e.chunks[w].ents[n] = ent
				n++
				kept++
			}
		}
	}
	rest := chain{head: e.chunks[w].next, tail: c.tail}
	e.chunks[w].next, c.tail, c.room = 0, w, chunkLen-n
	e.freeChain(&rest)
	return kept
}
