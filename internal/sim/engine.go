//lint:hotpath schedule/peek/exec run once per simulated event

// Package sim is the discrete-event core of the simulator: a
// monotonically advancing picosecond clock, a timing-wheel event queue
// with deterministic FIFO tie-breaking, cancellable timers, and a
// seedable pseudo-random source. Everything above this package —
// links, switches, hosts, protocols — is driven exclusively by events
// scheduled here, so a run is a pure function of (configuration, seed).
//
// Performance: events and the queue's storage are pooled and recycled
// (a run of tens of millions of packets allocates only a high-water mark
// of events and of queued entries), and the AtArg/AfterArg variants let
// hot paths schedule a pre-built capture-free callback with a pointer
// argument, avoiding per-packet closure allocation. The queue is a
// hierarchical timing wheel (see wheel.go); SchedHeap widens its active
// bucket to all of time, which degenerates it to the single global heap
// the tests cross-check the wheel against.
package sim

import (
	"fmt"
	"math"

	"floodgate/internal/units"
)

// event payloads live in a slab indexed by slot; the queue structures
// hold only pointer-free entries, so sift operations incur no GC write
// barriers and no slab write-backs. Cancellation is lazy: a cancelled
// slot's generation advances and its entry is skipped when it surfaces.
type event struct {
	fn    func()
	argFn func(any)
	arg   any
	gen   uint32 // incremented on recycle; invalidates stale Handles/entries
}

type heapEnt struct {
	at   units.Time
	seq  uint64
	slot int32
	gen  uint32
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is inert: Cancel on it is a no-op and Active reports false.
// Handles remain safe after the event fires: the generation check
// prevents a recycled slot from being cancelled by a stale handle.
type Handle struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Active reports whether the event is still pending.
func (h Handle) Active() bool {
	return h.e != nil && h.e.events[h.slot].gen == h.gen
}

// Engine owns the simulation clock and event queue. It is not safe for
// concurrent use: the simulated network is a single logical timeline.
type Engine struct {
	now units.Time
	seq uint64

	// Queue state (see wheel.go): the active sub-bucket as a sorted run,
	// the heap of entries scheduled into its span after it was sorted,
	// the rung of sub-buckets under the active granule, the near-horizon
	// ring, and the far-timer overflow heap. near is the end of the
	// active span past base: a sub-bucket boundary within the granule,
	// or all of time under SchedHeap, where every entry lands in cur and
	// the other four stay empty.
	near      int64
	run       []heapEnt // sorted by (at, seq); run[runHead:] is unpopped
	runHead   int
	runBuf    []heapEnt // run storage when the sub-bucket spilled into its chain
	cur       []heapEnt
	fineHead  [fineCount][fineInline]heapEnt // each sub-bucket's first entries
	fineN     [fineCount]uint8               // entries in fineHead[k]
	fine      [fineCount]chain               // the rest of each sub-bucket
	fineOcc   [fineWords]uint64              // bit k&63 of word k>>6 set: sub-bucket k may hold entries
	fineSum   uint64                         // bit w set: fineOcc[w] != 0
	fineCnt   int                            // entries across the rung
	ring      []chain
	chunks    []chunk    // chain storage; chunks[0] is the empty-chain sentinel
	freeChunk int32      // head of the LIFO free list of chunks (0: empty)
	base      units.Time // start of the active bucket's span
	cursor    int        // ring index of the active bucket
	wheelCnt  int        // entries across the ring
	overflow  []heapEnt

	events  []event
	free    []int32
	live    int // entries whose event is still scheduled
	entCnt  int // total queued entries across all structures (live + dead)
	heapHW  int // peak entCnt (self-instrumentation)
	curHW   int // peak active depth (unpopped run plus cur) at a pop
	stopped bool

	// Processed counts events executed since creation (for reporting).
	Processed uint64
}

// NewEngine returns an empty engine at time zero using the default
// timing-wheel scheduler.
func NewEngine() *Engine { return NewEngineWith(SchedWheel) }

// NewEngineWith returns an empty engine using the given scheduler.
// Both schedulers execute events in the identical (time, seq) order,
// so a run's output does not depend on the choice; SchedHeap exists as
// the simple reference implementation for cross-checking.
func NewEngineWith(s Scheduler) *Engine {
	e := &Engine{near: math.MaxInt64}
	if s == SchedWheel {
		e.near = 0
		e.ring, e.chunks = make([]chain, wheelBucketCount), make([]chunk, 1)
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() units.Time { return e.now }

func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.events = append(e.events, event{})
	return int32(len(e.events) - 1)
}

func (e *Engine) recycle(slot int32) {
	ev := &e.events[slot]
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.gen++
	e.free = append(e.free, slot)
}

// Pri orders same-timestamp events across nodes so that the execution
// order is a pure function of the configuration — never of how the
// topology happens to be partitioned into shards. The priority
// occupies the high bits of the entry's tie-break key; the per-engine
// schedule sequence fills the low bits, so within one (time, priority)
// class events still fire in FIFO schedule order.
//
// The assignment makes every same-(time, priority) collision either
// impossible or provably order-invariant (floodlint's ordering rule
// rejects a Pri built any other way):
//
//   - PriFault:    fault-plane sub-events, fired in plan order.
//   - PriStart:    flow-start injection chains.
//   - PriWireBase: wire deliveries; each directed link uses the fixed
//     priority WirePri(its global directed-port index), so two
//     distinct links never share an armed (time, priority) pair.
//   - PriTimer:    everything else (the default for At/After/AtArg/
//     AfterArg). Same-time timer ties are always same-node, and a
//     node's events keep their relative schedule order under any
//     partition.
type Pri uint32

const (
	priBits = 20
	seqBits = 44

	PriFault    Pri = 0
	PriStart    Pri = 1
	PriWireBase Pri = 2
	PriTimer    Pri = (1 << priBits) - 1
)

// WirePri is the priority of the directed link with global index dir.
func WirePri(dir uint32) Pri { return PriWireBase + Pri(dir) }

func (e *Engine) schedule(t units.Time, fn func(), argFn func(any), arg any, pri Pri) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	slot := e.alloc()
	ev := &e.events[slot]
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	gen := ev.gen
	ent := heapEnt{at: t, seq: uint64(pri)<<seqBits | e.seq, slot: slot, gen: gen}
	e.seq++
	e.live++
	e.entCnt++
	if e.entCnt > e.heapHW {
		e.heapHW = e.entCnt
	}
	e.insertWheel(ent)
	return Handle{e, slot, gen}
}

// At schedules fn to run at absolute time t, which must not precede
// the current time.
func (e *Engine) At(t units.Time, fn func()) Handle { return e.schedule(t, fn, nil, nil, PriTimer) }

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d units.Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now.Add(d), fn, nil, nil, PriTimer)
}

// AtArg schedules fn(arg) at absolute time t. fn should be a pre-built
// capture-free function so the call allocates nothing (a pointer in
// arg does not box).
func (e *Engine) AtArg(t units.Time, fn func(any), arg any) Handle {
	return e.schedule(t, nil, fn, arg, PriTimer)
}

// AfterArg schedules fn(arg) d after the current time.
func (e *Engine) AfterArg(d units.Duration, fn func(any), arg any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now.Add(d), nil, fn, arg, PriTimer)
}

// AtArgPri schedules fn(arg) at absolute time t with an explicit
// same-timestamp priority (see the Pri* constants). Lower priorities
// fire first among events sharing a timestamp.
func (e *Engine) AtArgPri(t units.Time, fn func(any), arg any, pri Pri) Handle {
	return e.schedule(t, nil, fn, arg, pri)
}

// Cancel removes a pending event (lazily: its queue entry is skipped
// when it surfaces, or swept in bulk once dead entries outnumber live
// ones). Cancelling an already-fired, already-cancelled, or zero
// handle is a no-op.
func (e *Engine) Cancel(h Handle) {
	if !h.Active() {
		return
	}
	e.recycle(h.slot)
	e.live--
	// Cancel-heavy workloads (e.g. go-back-N RTO rescheduling) would
	// otherwise bloat the queue with dead entries that are only shed
	// when they surface; compact once they dominate.
	if dead := e.entCnt - e.live; dead > e.entCnt/2 && e.entCnt >= minCompactLen {
		e.compactWheel()
	}
}

// minCompactLen keeps compaction from thrashing on tiny queues, where
// lazy skipping is already cheap.
const minCompactLen = 64

// filterLive drops dead entries in place, preserving relative order.
func (e *Engine) filterLive(ents []heapEnt) []heapEnt {
	kept := ents[:0]
	for _, ent := range ents {
		if e.events[ent.slot].gen == ent.gen {
			kept = append(kept, ent)
		}
	}
	return kept
}

// Stats is a passive point-in-time snapshot of the engine's internals,
// for self-instrumentation: event throughput, queue shape, the lazy-
// cancellation dead-entry load, and the pool's acquire/release balance
// (InUse must return to zero once every scheduled event has fired or
// been cancelled).
type Stats struct {
	Processed       uint64 // events executed since creation
	Live            int    // events still scheduled
	HeapLen         int    // total queued entries across all structures (live + dead)
	HeapHighWater   int    // peak queued-entry count
	ActiveHighWater int    // peak depth of what pops touch (CurLen at a pop)
	DeadEntries     int    // lazily cancelled entries awaiting removal
	SlabSize        int    // event slots ever allocated (pool high-water)
	FreeSlots       int    // recycled slots awaiting reuse
	InUse           int    // SlabSize - FreeSlots (pool balance)

	// Queue breakdown: HeapLen = CurLen + FineLen + BucketLen +
	// OverflowLen. Under SchedHeap everything is in CurLen and the other
	// three are zero.
	CurLen      int // active entries: the unpopped run plus cur
	FineLen     int // entries in the active granule's sub-buckets
	BucketLen   int // entries parked in near-horizon buckets
	OverflowLen int // far timers in the overflow heap
}

// StatsSnapshot reads the engine's self-metrics. It performs no
// allocation beyond the returned value and never mutates the engine,
// so it is safe to call from sampler probes on the hot path.
func (e *Engine) StatsSnapshot() Stats {
	return Stats{
		Processed:       e.Processed,
		Live:            e.live,
		HeapLen:         e.entCnt,
		HeapHighWater:   e.heapHW,
		ActiveHighWater: e.curHW,
		DeadEntries:     e.entCnt - e.live,
		SlabSize:        len(e.events),
		FreeSlots:       len(e.free),
		InUse:           len(e.events) - len(e.free),
		CurLen:          e.activeLen(),
		FineLen:         e.fineCnt,
		BucketLen:       e.wheelCnt,
		OverflowLen:     len(e.overflow),
	}
}

// Stop makes Run return after the event currently executing completes.
func (e *Engine) Stop() { e.stopped = true }

// NextAt reports the timestamp of the earliest queued entry, or false
// if the queue is empty. Dead (lazily cancelled) entries count: the
// sharded executor uses NextAt to pick the next barrier window, and
// including cancelled entries keeps the choice a function of the
// schedule/cancel history alone — which is partition-invariant — while
// only ever making the window conservatively early.
func (e *Engine) NextAt() (units.Time, bool) {
	ent, ok := e.peekWheel()
	return ent.at, ok
}

// Run executes events in timestamp order until the queue empties, Stop
// is called, or the next event would fire after `until`. The clock is
// left at `until` when the run reaches it, or at the last executed
// event's time when stopped.
func (e *Engine) Run(until units.Time) {
	e.stopped = false
	for !e.stopped {
		ent, ok := e.peekWheel()
		if !ok {
			break
		}
		if ent.at > until {
			e.now = until
			return
		}
		e.exec(ent)
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunAll executes every event until the queue drains or Stop is called.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped {
		ent, ok := e.peekWheel()
		if !ok {
			break
		}
		e.exec(ent)
	}
}

// activeLen is the depth of what pops touch: the unpopped run plus cur.
func (e *Engine) activeLen() int { return len(e.run) - e.runHead + len(e.cur) }

// exec pops the entry peekWheel just returned and runs its event.
func (e *Engine) exec(ent heapEnt) {
	if d := e.activeLen(); d > e.curHW {
		e.curHW = d
	}
	e.popWheel(ent)
	e.entCnt--
	ev := &e.events[ent.slot]
	if ev.gen != ent.gen {
		return // lazily cancelled
	}
	e.live--
	e.now = ent.at
	e.Processed++
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	e.recycle(ent.slot)
	if fn != nil {
		fn()
	} else if argFn != nil {
		argFn(arg)
	}
}

// entLess orders entries by (time, schedule sequence) — a strict total
// order, since sequence numbers are unique.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const heapArity = 4

// entPush adds an entry to a 4-ary min-heap slice.
func entPush(h *[]heapEnt, ent heapEnt) {
	*h = append(*h, ent)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !entLess(ent, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ent
}

// entPop removes the minimum entry of a 4-ary min-heap slice.
func entPop(h *[]heapEnt) {
	s := *h
	n := len(s) - 1
	if n > 0 {
		s[0] = s[n]
	}
	*h = s[:n]
	if n > 1 {
		entDown(s[:n], 0)
	}
}

// entHeapInit establishes the heap invariant over an arbitrary slice.
func entHeapInit(s []heapEnt) {
	if len(s) < 2 {
		return
	}
	for i := (len(s) - 2) / heapArity; i >= 0; i-- {
		entDown(s, i)
	}
}

func entDown(s []heapEnt, i int) {
	n := len(s)
	ent := s[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entLess(s[c], s[best]) {
				best = c
			}
		}
		if !entLess(s[best], ent) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = ent
}
