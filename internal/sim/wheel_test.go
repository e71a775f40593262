package sim

import (
	"runtime"
	"testing"

	"floodgate/internal/units"
)

// TestWheelScheduleAtNow covers the d <= 0 insert path: events
// scheduled at exactly Now() — including after the clock was advanced
// by Run past the wheel base — must fire before any later event, in
// scheduling order.
func TestWheelScheduleAtNow(t *testing.T) {
	e := NewEngine()
	var order []int
	// Park a far timer so the wheel has jumped its base well past zero
	// by the time the Now()-relative events are scheduled.
	far := units.Time(10 * wheelHorizon)
	e.At(far, func() { order = append(order, 99) })
	e.Run(far - 1) // clock at far-1; base may sit anywhere ≤ far
	e.At(e.Now(), func() { order = append(order, 0) })
	e.At(e.Now(), func() {
		order = append(order, 1)
		// Scheduling at Now() from inside an event (the After(0)
		// pattern) must also run before anything later.
		e.After(0, func() { order = append(order, 2) })
	})
	e.RunAll()
	want := []int{0, 1, 2, 99}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestWheelBoundaryTieBreak pins FIFO tie-breaking for two events with
// an identical timestamp where the first is filed in the overflow heap
// (beyond the horizon) and the second — scheduled later, after the
// wheel advanced — lands in a near bucket. Scheduling order must win.
func TestWheelBoundaryTieBreak(t *testing.T) {
	e := NewEngine()
	target := units.Time(wheelHorizon + wheelHorizon/2)
	var order []int
	e.At(target, func() { order = append(order, 0) }) // overflow at schedule time
	if s := e.StatsSnapshot(); s.OverflowLen != 1 {
		t.Fatalf("far event not in overflow: %+v", s)
	}
	// Advance the wheel past half the horizon, then schedule the twin.
	e.At(units.Time(wheelHorizon*3/4), func() {
		e.At(target, func() { order = append(order, 1) }) // near structure now
		if s := e.StatsSnapshot(); s.OverflowLen != 0 {
			t.Fatalf("twin not migrated/near: %+v", s)
		}
	})
	e.RunAll()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("tie-break across boundary broken: %v", order)
	}
}

// TestWheelFarTimerMigration proves a timer parked beyond the horizon
// migrates into the near buckets as the wheel advances and still fires
// at exactly its timestamp, interleaved correctly with near traffic.
func TestWheelFarTimerMigration(t *testing.T) {
	e := NewEngine()
	farAt := units.Time(wheelHorizon + 3*wheelGran/2)
	var firedAt units.Time
	e.At(farAt, func() { firedAt = e.Now() })
	if s := e.StatsSnapshot(); s.OverflowLen != 1 {
		t.Fatalf("far timer not in overflow: %+v", s)
	}
	// Near traffic marches the cursor across the full ring, forcing the
	// per-advance migration path (not the idle jump).
	var last units.Time
	for at := units.Time(wheelGran / 2); at < farAt+units.Time(wheelGran); at += units.Time(wheelGran) {
		at := at
		e.At(at, func() { last = at })
	}
	e.RunAll()
	if firedAt != farAt {
		t.Fatalf("far timer fired at %v, want %v", firedAt, farAt)
	}
	if last < farAt {
		t.Fatalf("near traffic stopped early at %v", last)
	}
	if s := e.StatsSnapshot(); s.OverflowLen != 0 || s.HeapLen != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
}

// TestCancelFiredHandle: cancelling a handle whose event already fired
// must be a no-op — in particular it must not kill an unrelated event
// that recycled the same slot.
func TestCancelFiredHandle(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := e.At(1, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("first event fired %d times", fired)
	}
	// Reuses h's slot with a bumped generation.
	e.At(2, func() { fired++ })
	e.Cancel(h) // stale: same slot, old generation
	e.Cancel(h) // double-cancel of a stale handle
	if e.Pending() != 1 {
		t.Fatalf("stale Cancel disturbed pending count: %d", e.Pending())
	}
	e.RunAll()
	if fired != 2 {
		t.Fatalf("slot-reusing event killed by stale handle: fired %d", fired)
	}
	if s := e.StatsSnapshot(); s.Live != 0 || s.InUse != 0 {
		t.Fatalf("accounting skewed after stale cancels: %+v", s)
	}
}

// TestCrossSchedulerIdenticalOrder is the scheduler oracle: the wheel
// must execute a randomized workload in the identical (time, priority,
// seq) order as SchedHeap, the single comparison heap that shares none
// of the bucket, overflow or advance logic. It is the only place the
// two queues are compared — every layer above sees one engine — so the
// workload covers what the experiment matrices used to exercise
// implicitly: horizons spanning Now(), the active granule (on and one
// picosecond either side of every sub-bucket edge, the granule's own
// included), the near ring and the overflow heap; same-timestamp events
// across the whole priority ladder, scheduled out of priority order;
// random cancels plus cancel storms big enough to trigger compaction
// mid-run, with the rung populated and with a burst that makes one ring
// bucket span several chunks; ring chunks taken back from the free list
// after the ring has wrapped; the sorted run under the rung — a wire
// delivery inserted into cur at a PriTimer run head's timestamp (it
// must pop first), same-timestamp bursts of mixed priority past the
// insertion-sort cutoff, and compactions of a partly consumed run;
// gaps that drain everything but far timers, so the wheel jumps; and
// both drivers — one RunAll, and the
// sharded executor's NextAt → Run(window end) stepping with
// barrier-time injections (which land behind base after a jump), where
// NextAt itself (dead entries included) must agree at every barrier.
func TestCrossSchedulerIdenticalOrder(t *testing.T) {
	type fire struct {
		at units.Time
		id int // event id; -1 marks a barrier's NextAt reading
	}
	// What a run exercised, so the test fails if a path goes uncovered.
	type coverage struct {
		compactions, fineCompactions, behindBase int
		multiChunk, chunkCompactions, reuses     int
		lowerPri, sortedBursts, runCompactions   int
	}
	// spans reports whether some ring bucket is a chain of two or more
	// chunks (never under SchedHeap, whose ring stays empty).
	spans := func(e *Engine) bool {
		for _, c := range e.ring {
			if c.head != c.tail {
				return true
			}
		}
		return false
	}
	pris := []Pri{PriFault, PriStart, PriWireBase, WirePri(7), WirePri(300), PriTimer}
	// window > 0 steps the engine the way exp.runWindows does.
	run := func(s Scheduler, seed uint64, window units.Duration) (log []fire, cov coverage) {
		e := NewEngineWith(s)
		r := NewRand(seed)
		id := 0
		record := func(a any) {
			log = append(log, fire{e.Now(), a.(int)})
			// A run longer than the insertion-sort cutoff whose ends
			// share a timestamp but not a priority: a mixed burst
			// sorted by slices.SortFunc.
			if n := len(e.run); n > runSortMax && e.run[0].at == e.run[n-1].at && e.run[0].seq>>seqBits != e.run[n-1].seq>>seqBits {
				cov.sortedBursts++
			}
		}
		// inject schedules a wire delivery at the timestamp of a timer
		// filed earlier, from an event 1 ps before it: the delivery
		// lands in cur below a run head of the same timestamp and a
		// higher priority, and must pop first.
		inject := func(a any) {
			at := a.(units.Time)
			if e.runHead < len(e.run) {
				h := e.run[e.runHead]
				if h.at == at && Pri(h.seq>>seqBits) == PriTimer && int64(at)-int64(e.base) < e.near {
					cov.lowerPri++
				}
			}
			e.AtArgPri(at, record, id, WirePri(uint32(r.Intn(16))))
			id++
		}
		delay := func() units.Duration {
			switch r.Intn(5) {
			case 0:
				return 0 // at Now()
			case 1:
				return units.Duration(r.Int63n(int64(wheelGran))) // active granule
			case 2:
				return units.Duration(r.Int63n(int64(wheelHorizon))) // near buckets
			case 3:
				// k·2^9 − 1, +0, +1 ps; k = fineCount is wheelGran ± 1.
				edge := units.Duration(r.Intn(fineCount+1))<<fineShift + units.Duration(r.Intn(3)) - 1
				if edge < 0 {
					edge = 0
				}
				return edge
			}
			return wheelHorizon + units.Duration(r.Int63n(int64(wheelHorizon))) // overflow
		}
		handles := make([]Handle, 0, 64)
		tick := 0
		var churn func(any)
		churn = func(any) {
			tick++
			// A batch at mixed horizons on the default priority. Inserts
			// alone never free a chunk, so a moved free-list head is a
			// chunk taken back for reuse.
			free := e.freeChunk
			for i := 0; i < 4; i++ {
				handles = append(handles, e.AfterArg(delay(), record, id))
				id++
			}
			if free != 0 && e.freeChunk != free && e.base >= units.Time(wheelHorizon) {
				cov.reuses++
			}
			// A same-timestamp clash across the priority ladder, in
			// random (not priority) schedule order; repeats of one
			// priority must stay FIFO.
			at := e.Now().Add(delay())
			for i := 0; i < 4; i++ {
				handles = append(handles, e.AtArgPri(at, record, id, pris[r.Intn(len(pris))]))
				id++
			}
			if r.Intn(2) == 0 {
				e.Cancel(handles[r.Intn(len(handles))])
			}
			// A timer a granule or two ahead, and the event that injects
			// a lower-priority twin of it 1 ps earlier.
			at = e.Now().Add(wheelGran + units.Duration(r.Int63n(int64(wheelGran))))
			handles = append(handles, e.AtArg(at, record, id))
			id++
			e.AtArg(at-1, inject, at)
			// Every tenth tick, a burst at one timestamp across the
			// priority ladder, three times the insertion-sort cutoff.
			if tick%10 == 0 {
				at = e.Now().Add(wheelGran + units.Duration(r.Int63n(int64(wheelGran))))
				for i := 0; i < 3*runSortMax; i++ {
					handles = append(handles, e.AtArgPri(at, record, id, pris[r.Intn(len(pris))]))
					id++
				}
			}
			// Cancel storm: dead entries outnumber live ones across all
			// the structures, so compaction runs with events in flight.
			// A third of the storm bursts into one ring bucket, a chain
			// of three chunks that compaction must pack and trim.
			if tick%50 == 0 {
				storm := make([]Handle, 8*minCompactLen)
				burst := e.Now().Add(wheelGran * units.Duration(2+r.Intn(wheelBucketCount-3)))
				for i := range storm {
					if i%3 == 1 {
						storm[i] = e.AtArg(burst.Add(units.Duration(r.Intn(1000))), record, id)
					} else {
						storm[i] = e.AfterArg(delay(), record, id)
					}
					id++
				}
				multi := spans(e)
				if multi {
					cov.multiChunk++
				}
				for i, h := range storm {
					if i%8 != 0 {
						before := e.StatsSnapshot()
						partial := e.runHead > 0 && e.runHead < len(e.run)
						e.Cancel(h)
						if e.StatsSnapshot().HeapLen < before.HeapLen {
							cov.compactions++
							if partial {
								cov.runCompactions++
							}
							if before.FineLen > 0 {
								cov.fineCompactions++
							}
							if multi {
								cov.chunkCompactions++
							}
						}
					}
				}
			}
			switch {
			case id >= 6000:
			case tick%40 == 0:
				// A gap longer than everything near: the queue drains to
				// far timers and the wheel jumps its base to the first.
				e.AfterArg(3*wheelHorizon, churn, nil)
			default:
				// A sibling 1 ps after the next tick shares its sub-bucket,
				// so a storm started there finds the run partly consumed.
				d := units.Duration(r.Int63n(int64(wheelGran*8))) + 1
				e.AfterArg(d, churn, nil)
				handles = append(handles, e.AfterArg(d+1, record, id))
				id++
			}
		}
		churn(nil)
		if window == 0 {
			e.RunAll()
			return log, cov
		}
		for {
			at, ok := e.NextAt()
			log = append(log, fire{at, -1})
			if !ok {
				return log, cov
			}
			until := (at + units.Time(window) - 1) / units.Time(window) * units.Time(window)
			e.Run(until)
			// Staged cross-shard frames land at the barrier, strictly in
			// the receiver's future, on their link's wire priority.
			if r.Intn(4) == 0 {
				at := until.Add(1 + units.Duration(r.Int63n(int64(window))))
				if at < e.base {
					cov.behindBase++
				}
				e.AtArgPri(at, record, id, WirePri(uint32(r.Intn(16))))
				id++
			}
		}
	}
	for _, window := range []units.Duration{0, units.Microsecond + 5120} {
		for _, seed := range []uint64{1, 7, 42} {
			wheel, wc := run(SchedWheel, seed, window)
			heap, hc := run(SchedHeap, seed, window)
			if wc.compactions == 0 || hc.compactions == 0 || wc.fineCompactions == 0 {
				t.Fatalf("window %v seed %d: cancel storms never compacted, or never with the rung populated (wheel %+v, heap %+v)", window, seed, wc, hc)
			}
			if wc.multiChunk == 0 || wc.chunkCompactions == 0 || wc.reuses == 0 {
				t.Fatalf("window %v seed %d: no multi-chunk bucket, no compaction sweeping one, or no chunk reused after a wrap (wheel %+v)", window, seed, wc)
			}
			if wc.lowerPri == 0 || wc.sortedBursts == 0 || wc.runCompactions == 0 {
				t.Fatalf("window %v seed %d: no lower-priority insert at the run head's timestamp, no mixed burst past the insertion-sort cutoff, or no compaction of a partly consumed run (wheel %+v)", window, seed, wc)
			}
			if window > 0 && wc.behindBase == 0 {
				t.Fatalf("window %v seed %d: no barrier injection landed behind the wheel base", window, seed)
			}
			if len(wheel) != len(heap) {
				t.Fatalf("window %v seed %d: logged %d (wheel) vs %d (heap)", window, seed, len(wheel), len(heap))
			}
			for i := range wheel {
				if wheel[i] != heap[i] {
					t.Fatalf("window %v seed %d: divergence at entry %d: wheel %+v heap %+v",
						window, seed, i, wheel[i], heap[i])
				}
			}
		}
	}
}

// TestRingMemoryFollowsBacklog pins what the ring retains: its storage
// follows the backlog, not ring size × each bucket's worst burst. The
// replay engine holds the 2,725-entry backlog for 300 µs — more than two
// rotations of the 134 µs ring, so every bucket has been filled and
// drained at least twice. The engine retains 330,000 B here (events,
// entries, the rung's inline heads and chunks together) and allocates
// ≈ 0.73 MB; buckets that keep their largest burst read 21.7 / 47.6 MB.
func TestRingMemoryFollowsBacklog(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e := newReplayEngine(SchedWheel, replayBacklog, 1)
	e.Run(units.Time(300 * units.Microsecond))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if s := e.StatsSnapshot(); s.HeapLen != replayBacklog {
		t.Fatalf("replay did not hold its %d-entry backlog: %+v", replayBacklog, s)
	}
	runtime.KeepAlive(e)
	retained := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	allocated := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("retained %d B, allocated %d B over %d events", retained, allocated, e.Processed)
	if retained > 512<<10 {
		t.Errorf("engine retains %d B after a forced GC, want <= 512 KiB", retained)
	}
	if allocated > 1280<<10 {
		t.Errorf("engine allocated %d B, want <= 1,280 KiB", allocated)
	}
}

// TestWatchdogOverflowUnderWheel pins that a far self-re-arming timer
// (the shape of an RTO, a SYN timeout or a stall horizon: a period far
// beyond the wheel's) lives in the overflow heap rather than pinning
// near buckets, and still fires exactly on its period under the wheel
// scheduler despite busy near-bucket traffic.
func TestWatchdogOverflowUnderWheel(t *testing.T) {
	eng := NewEngine()
	period := 4 * units.Duration(wheelHorizon) // ≈ 537 µs, a realistic stall horizon
	var fired []units.Time
	var far func(any)
	far = func(any) {
		fired = append(fired, eng.Now())
		if len(fired) == 3 {
			eng.Stop()
			return
		}
		eng.AfterArg(period, far, nil)
		if s := eng.StatsSnapshot(); s.OverflowLen != 1 {
			t.Fatalf("re-armed far timer not parked in overflow: %+v", s)
		}
	}
	eng.AfterArg(period, far, nil)
	if s := eng.StatsSnapshot(); s.OverflowLen != 1 || s.BucketLen != 0 || s.CurLen != 0 {
		t.Fatalf("far timer not parked in overflow: %+v", s)
	}
	// A spin that keeps the event loop (and wheel cursor) busy in the
	// near buckets the whole time.
	var spin func(any)
	spin = func(any) { eng.AfterArg(units.Duration(wheelGran)/4, spin, nil) }
	spin(nil)
	eng.Run(units.Time(units.Second))
	for i, at := range fired {
		if want := units.Time(0).Add(units.Duration(i+1) * period); at != want {
			t.Fatalf("far timer firing %d at %v, want %v", i, at, want)
		}
	}
	if len(fired) != 3 {
		t.Fatalf("far timer fired %d times, want 3", len(fired))
	}
}
