package sim

import (
	"testing"

	"floodgate/internal/units"
)

// BenchmarkEngineCorePushPop measures raw schedule/execute throughput:
// every iteration schedules one event and executes one, the queue
// holding a steady backlog.
func BenchmarkEngineCorePushPop(b *testing.B) { benchPushPop(b, SchedWheel) }

// BenchmarkEngineCorePushPopHeap is the same workload on the reference
// heap scheduler, so the wheel's advantage at each backlog stays
// visible (the bench/ ledger's sim.replay_* rungs make the same
// comparison at each workload's real backlog).
func BenchmarkEngineCorePushPopHeap(b *testing.B) { benchPushPop(b, SchedHeap) }

func benchPushPop(b *testing.B, s Scheduler) {
	for _, backlog := range []int{16, 1024, 65536} {
		b.Run(benchName("backlog", backlog), func(b *testing.B) {
			op := pushPopOp(NewEngineWith(s), backlog, func() {})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkEngineCoreAfterArg exercises the zero-alloc hot path:
// a pre-built capture-free callback rescheduling itself via a pointer
// argument. Steady state must not allocate (asserted by
// TestEngineHotPathZeroAlloc; the benchmark reports allocs/op as evidence).
func BenchmarkEngineCoreAfterArg(b *testing.B) {
	op := afterArgOp(NewEngine())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkEngineCoreCancel measures the cancel-heavy regime that the
// heap compaction targets: every scheduled timer is cancelled and
// rescheduled before it fires (the go-back-N RTO pattern).
func BenchmarkEngineCoreCancel(b *testing.B) {
	for _, timers := range []int{64, 4096} {
		b.Run(benchName("timers", timers), func(b *testing.B) {
			op := cancelOp(NewEngine(), timers, func() {})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkEngineReplay is the bench ledger's sim.replay_* rung
// (bench/rungs.go rungReplay) as a go-test benchmark, so queue work can
// be iterated without a ledger run: no-op events that reschedule
// themselves hold the backlog steady at the incast-mix workloads' peak.
// The burst/ cases price the sort's worst case instead: burstLen events
// at one timestamp with mixed wire priorities, scheduled a granule
// ahead and run, one op per event.
func BenchmarkEngineReplay(b *testing.B) {
	for _, s := range []Scheduler{SchedWheel, SchedHeap} {
		b.Run(s.String(), func(b *testing.B) {
			e := newReplayEngine(s, replayBacklog, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for target := e.Processed + uint64(b.N); e.Processed < target; {
				at, _ := e.NextAt()
				e.Run(at)
			}
		})
	}
	for _, s := range []Scheduler{SchedWheel, SchedHeap} {
		b.Run("burst/"+s.String(), func(b *testing.B) {
			e, r := NewEngineWith(s), NewRand(1)
			burst := func() {
				at := e.Now().Add(wheelGran)
				for i := 0; i < burstLen; i++ {
					e.AtArgPri(at, func(any) {}, nil, WirePri(uint32(r.Intn(burstLen))))
				}
				e.Run(at)
			}
			burst() // warm the slab, the chunks and the run
			b.ReportAllocs()
			b.ResetTimer()
			for target := e.Processed + uint64(b.N); e.Processed < target; {
				burst()
			}
		})
	}
}

// burstLen is the shape of clos100k_incast_fg's start: a few thousand
// events at one timestamp, which the wheel pops as one sorted run.
const burstLen = 4096

// replayBacklog is sim.backlog_hw on incastmix_fg, the paper's §6 mix
// (clos100k_incast_fg peaks at 2,766; memcached_churn_dcqcn at 955).
const replayBacklog = 2725

type replayEvent struct {
	e     *Engine
	delay units.Duration
}

func replayFn(a any) {
	ev := a.(*replayEvent)
	ev.e.AfterArg(ev.delay, replayFn, ev)
}

// newReplayEngine queues `backlog` self-rescheduling events in the
// ledger's replay shape: fifteen delays in sixteen drawn between a
// 400 G control frame's and a 100 G hop's latency (30–1,430 ns), the
// sixteenth a 10 µs credit-timer period.
func newReplayEngine(s Scheduler, backlog int, seed uint64) *Engine {
	e := NewEngineWith(s)
	r := NewRand(seed ^ 0x5c4ed)
	evs := make([]replayEvent, backlog)
	for i := range evs {
		delay := 30*units.Nanosecond + units.Duration(r.Int63n(int64(1400*units.Nanosecond)))
		if i%16 == 0 {
			delay = 10 * units.Microsecond
		}
		evs[i] = replayEvent{e: e, delay: delay}
		e.AfterArg(delay, replayFn, &evs[i])
	}
	return e
}

// TestActiveHeapDepth pins what the rung under the ring is for: on the
// replay shape a 131 ns granule holds ≈400 of the 2,725 queued entries
// (mean depth at pop 413 without the rung), and pops must touch what is
// left of one 512 ps sub-bucket's sorted run plus the heap of entries
// scheduled into its span since, not the granule. The depths are
// counts, so the bound cannot flake.
func TestActiveHeapDepth(t *testing.T) {
	e := newReplayEngine(SchedWheel, replayBacklog, 1)
	const pops = 200_000
	depth := 0
	for i := 0; i < pops; i++ {
		ent, _ := e.peekWheel()
		depth += e.activeLen()
		e.exec(ent)
	}
	mean := float64(depth) / pops
	t.Logf("mean active depth at pop %.2f", mean)
	if mean > 32 {
		t.Fatalf("mean active depth at pop = %.1f, want <= 32", mean)
	}
	if s := e.StatsSnapshot(); s.HeapLen != replayBacklog {
		t.Fatalf("replay did not hold its %d-entry backlog: %+v", replayBacklog, s)
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestEngineHotPathZeroAlloc asserts the engine's per-event paths
// allocate nothing once the event slab and queue structures are warm —
// the exact gate on what the BenchmarkEngineCore* benchmarks measure:
// AfterArg self-rescheduling (the callback is capture-free and the
// pointer argument does not box), schedule-one/execute-one against a
// standing backlog on either scheduler, and the cancel-and-reschedule
// RTO pattern with its compaction sweeps.
func TestEngineHotPathZeroAlloc(t *testing.T) {
	nop := func() {}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"AfterArg", afterArgOp(NewEngine())},
		{"push-pop/wheel", pushPopOp(NewEngine(), 1024, nop)},
		{"push-pop/heap", pushPopOp(NewEngineWith(SchedHeap), 1024, nop)},
		{"cancel/near", cancelOp(NewEngine(), 64, nop)},
		{"cancel/overflow", cancelOp(NewEngine(), 4096, nop)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20000; i++ { // warm the slab, buckets and heaps
				tc.op()
			}
			if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
				t.Fatalf("%s allocates %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// afterArgOp is BenchmarkEngineCoreAfterArg's loop body: a capture-free
// callback reschedules itself through a pointer argument, one event
// executed per call.
func afterArgOp(e *Engine) func() {
	type payload struct{ n int }
	var fn func(any)
	fn = func(a any) {
		a.(*payload).n++
		e.AfterArg(units.Nanosecond, fn, a)
	}
	e.AfterArg(units.Nanosecond, fn, &payload{})
	return func() {
		at, _ := e.NextAt()
		e.Run(at)
	}
}

// pushPopOp is BenchmarkEngineCorePushPop's loop body: a standing
// backlog, then schedule one event and execute one per call.
func pushPopOp(e *Engine, backlog int, fn func()) func() {
	t := units.Time(0)
	for i := 0; i < backlog; i++ {
		t = t.Add(units.Nanosecond)
		e.At(t, fn)
	}
	return func() {
		t = t.Add(units.Nanosecond)
		e.At(t, fn)
		at, _ := e.NextAt()
		e.Run(at)
	}
}

// cancelOp is BenchmarkEngineCoreCancel's loop body: every timer is
// cancelled and rescheduled before it fires.
func cancelOp(e *Engine, timers int, fn func()) func() {
	handles := make([]Handle, timers)
	horizon := units.Duration(timers) * units.Microsecond
	for i := range handles {
		handles[i] = e.After(horizon, fn)
	}
	i := 0
	return func() {
		j := i % timers
		i++
		e.Cancel(handles[j])
		handles[j] = e.After(horizon, fn)
	}
}

// TestHeapCompaction covers the dead-entry sweep: a cancel-heavy
// workload must not grow the heap beyond ~2x the live count, Pending
// must stay exact, and the surviving events must fire in timestamp
// order exactly as they would without compaction.
func TestHeapCompaction(t *testing.T) {
	e := NewEngine()
	var fired []int
	const keep = 100
	// Schedule `keep` survivors interleaved with 50x as many victims,
	// then cancel every victim.
	var victims []Handle
	for i := 0; i < keep; i++ {
		i := i
		e.At(units.Time(2*i+1), func() { fired = append(fired, i) })
		for j := 0; j < 50; j++ {
			victims = append(victims, e.At(units.Time(2*i+2), func() { t.Error("cancelled event fired") }))
		}
	}
	for _, h := range victims {
		e.Cancel(h)
	}
	if got := e.Pending(); got != keep {
		t.Fatalf("Pending = %d, want %d", got, keep)
	}
	if ql := e.StatsSnapshot().HeapLen; ql > 2*keep {
		t.Fatalf("queue not compacted: len %d for %d live", ql, keep)
	}
	e.RunAll()
	if len(fired) != keep {
		t.Fatalf("fired %d, want %d", len(fired), keep)
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
}

// TestCompactionPreservesTieBreak pins determinism across a sweep:
// same-timestamp events must still fire in scheduling order after a
// compaction rebuilt the heap.
func TestCompactionPreservesTieBreak(t *testing.T) {
	e := NewEngine()
	const at = units.Time(1000)
	var order []int
	var victims []Handle
	for i := 0; i < minCompactLen; i++ {
		i := i
		e.At(at, func() { order = append(order, i) })
		victims = append(victims, e.At(at, func() {}))
	}
	for _, h := range victims {
		e.Cancel(h)
	}
	e.RunAll()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FIFO tie-break broken after compaction: %v", order)
		}
	}
	if len(order) != minCompactLen {
		t.Fatalf("fired %d, want %d", len(order), minCompactLen)
	}
}
