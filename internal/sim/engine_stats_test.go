package sim

import (
	"testing"

	"floodgate/internal/units"
)

// TestStatsSnapshot exercises the engine's self-metrics through a
// schedule / cancel / drain cycle: the high-water mark tracks the peak
// heap length, dead entries reflect lazy cancellation, and the pool's
// acquire/release balance returns to zero when the queue drains.
func TestStatsSnapshot(t *testing.T) {
	e := NewEngine()
	if s := e.StatsSnapshot(); s != (Stats{}) {
		t.Fatalf("fresh engine stats = %+v, want zero", s)
	}

	const n = 32
	handles := make([]Handle, n)
	for i := 0; i < n; i++ {
		handles[i] = e.At(units.Time(i+1), func() {})
	}
	s := e.StatsSnapshot()
	if s.Live != n || s.HeapLen != n || s.HeapHighWater != n {
		t.Fatalf("after schedule: %+v", s)
	}
	if s.InUse != n || s.SlabSize != n || s.FreeSlots != 0 {
		t.Fatalf("pool after schedule: %+v", s)
	}
	if s.DeadEntries != 0 {
		t.Fatalf("dead entries = %d, want 0", s.DeadEntries)
	}

	// Cancel a minority: below the compaction threshold the entries stay
	// in the heap as dead weight, but their slots recycle immediately.
	const cancelled = 8
	for i := 0; i < cancelled; i++ {
		e.Cancel(handles[i])
	}
	s = e.StatsSnapshot()
	if s.Live != n-cancelled {
		t.Fatalf("live after cancel = %d, want %d", s.Live, n-cancelled)
	}
	if s.DeadEntries != cancelled {
		t.Fatalf("dead after cancel = %d, want %d (heap %d)", s.DeadEntries, cancelled, s.HeapLen)
	}
	if s.InUse != n-cancelled || s.FreeSlots != cancelled {
		t.Fatalf("pool after cancel: %+v", s)
	}

	e.RunAll()
	s = e.StatsSnapshot()
	if s.Processed != n-cancelled {
		t.Fatalf("processed = %d, want %d", s.Processed, n-cancelled)
	}
	if s.Live != 0 || s.HeapLen != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
	if s.InUse != 0 || s.FreeSlots != s.SlabSize {
		t.Fatalf("pool unbalanced after drain: %+v", s)
	}
	if s.HeapHighWater != n {
		t.Fatalf("high-water = %d, want %d", s.HeapHighWater, n)
	}
}

// TestStatsQueueBreakdown exercises the per-structure accounting:
// CurLen/FineLen/BucketLen/OverflowLen must partition HeapLen — four
// ways under the wheel (the active granule's entries wait in the rung
// until a peek surfaces the first sub-bucket into cur), all in CurLen
// under SchedHeap (whose active heap spans all of time) — and
// cancellation must keep Live/DeadEntries exact no matter which
// structure holds the dead entry, including through a compaction sweep
// that touches all four. ActiveHighWater is the deepest heap a pop saw:
// one sub-bucket under the wheel, the whole queue under SchedHeap.
func TestStatsQueueBreakdown(t *testing.T) {
	const per = minCompactLen // enough that cancelling two groups trips compaction
	sum := func(s Stats) int { return s.CurLen + s.FineLen + s.BucketLen + s.OverflowLen }
	for _, tc := range []struct {
		kind                        Scheduler
		cur, fine, bucket, overflow int
		peeked                      int // CurLen after one peek
	}{
		// near's delays 0..per-1 ps all fall in sub-bucket 0.
		{SchedWheel, 0, per, per, per, per},
		{SchedHeap, 3 * per, 0, 0, 0, 3 * per},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			e := NewEngineWith(tc.kind)
			near := make([]Handle, 0) // active bucket (cur)
			mid := make([]Handle, 0)  // near-horizon ring buckets
			far := make([]Handle, 0)  // overflow heap
			for i := 0; i < per; i++ {
				near = append(near, e.After(units.Duration(i), func() {}))
				mid = append(mid, e.After(units.Duration(wheelGran)*units.Duration(2+i%8), func() {}))
				far = append(far, e.After(units.Duration(wheelHorizon)*2+units.Duration(i), func() {}))
			}
			s := e.StatsSnapshot()
			if s.CurLen != tc.cur || s.FineLen != tc.fine || s.BucketLen != tc.bucket || s.OverflowLen != tc.overflow {
				t.Fatalf("structure split wrong: %+v", s)
			}
			if s.HeapLen != sum(s) {
				t.Fatalf("HeapLen %d != sum of structures: %+v", s.HeapLen, s)
			}
			// A peek moves the first occupied sub-bucket from the rung
			// into cur and nothing else.
			e.NextAt()
			if s = e.StatsSnapshot(); s.CurLen != tc.peeked || s.HeapLen != sum(s) || s.ActiveHighWater != 0 {
				t.Fatalf("after peek: %+v", s)
			}

			// Cancel a sub-threshold slice of each group: entries stay
			// queued as dead weight wherever they were filed.
			for _, h := range [][]Handle{near[:8], mid[:8], far[:8]} {
				for _, v := range h {
					e.Cancel(v)
				}
			}
			s = e.StatsSnapshot()
			if s.Live != 3*per-24 || s.DeadEntries != 24 {
				t.Fatalf("after partial cancel: %+v", s)
			}
			if s.HeapLen != 3*per || s.HeapLen != sum(s) {
				t.Fatalf("dead entries miscounted per structure: %+v", s)
			}

			// Cancel the rest of near and mid: dead outnumbers live along
			// the way, so compaction must sweep every structure and hold
			// the queue within 2x the live count.
			for _, h := range append(near[8:], mid[8:]...) {
				e.Cancel(h)
			}
			s = e.StatsSnapshot()
			if s.Live != per-8 {
				t.Fatalf("live after full cancel = %d, want %d", s.Live, per-8)
			}
			if s.HeapLen > 2*s.Live {
				t.Fatalf("compaction bound violated: %+v", s)
			}
			if s.HeapLen != sum(s) {
				t.Fatalf("structure split inconsistent after compaction: %+v", s)
			}
			// Every survivor is a far timer: the wheel holds them all in
			// overflow, the heap has nowhere but cur.
			if tc.kind == SchedWheel && s.OverflowLen < s.Live {
				t.Fatalf("live far timers missing from overflow: %+v", s)
			}
			if tc.kind == SchedHeap && s.CurLen != s.HeapLen {
				t.Fatalf("heap entries left cur: %+v", s)
			}
			if s.HeapHighWater != 3*per {
				t.Fatalf("high-water = %d, want %d", s.HeapHighWater, 3*per)
			}

			e.RunAll()
			s = e.StatsSnapshot()
			if s.Live != 0 || s.HeapLen != 0 || s.InUse != 0 {
				t.Fatalf("unbalanced after drain: %+v", s)
			}
			if s.Processed != uint64(per-8) {
				t.Fatalf("processed = %d, want %d", s.Processed, per-8)
			}
			// The survivors sit one per picosecond, so the wheel pops
			// them from a single sub-bucket; the heap's pops also wade
			// through whatever dead entries the last sweep left.
			if hw := s.ActiveHighWater; hw < per-8 || (tc.kind == SchedWheel && hw != per-8) {
				t.Fatalf("ActiveHighWater = %d, want %d", hw, per-8)
			}
		})
	}
}

// TestHeapHighWaterSurvivesCompaction: compaction shrinks the heap but
// must not rewind the recorded peak.
func TestHeapHighWaterSurvivesCompaction(t *testing.T) {
	e := NewEngine()
	var victims []Handle
	for i := 0; i < 4*minCompactLen; i++ {
		victims = append(victims, e.At(units.Time(i+1), func() {}))
	}
	peak := e.StatsSnapshot().HeapHighWater
	for _, h := range victims {
		e.Cancel(h)
	}
	s := e.StatsSnapshot()
	if s.HeapLen >= peak {
		t.Fatalf("compaction did not shrink heap: len %d, peak %d", s.HeapLen, peak)
	}
	if s.HeapHighWater != peak {
		t.Fatalf("high-water rewound: %d, want %d", s.HeapHighWater, peak)
	}
}
