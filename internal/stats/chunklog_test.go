package stats

import (
	"reflect"
	"testing"

	"floodgate/internal/units"
)

// TestChunkLogMatchesSlice: at every length around the chunk edges, a
// ChunkLog reads back exactly what a plain slice holds, entry by entry,
// and entry addresses never move as the log grows.
func TestChunkLogMatchesSlice(t *testing.T) {
	var l ChunkLog[int]
	var want []int
	var first *int
	check := func() {
		t.Helper()
		if l.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(want))
		}
		for i := range want {
			if *l.At(i) != want[i] {
				t.Fatalf("At(%d) = %d, want %d (len %d)", i, *l.At(i), want[i], len(want))
			}
		}
		if l.At(0) != first {
			t.Fatalf("entry 0 moved after %d appends", len(want))
		}
	}
	if l.Len() != 0 {
		t.Fatalf("zero log has length %d", l.Len())
	}
	for i := 0; i < 2*chunkLen+3; i++ {
		l.Append(i * 7)
		want = append(want, i*7)
		if i == 0 {
			first = l.At(0)
		}
		if r := (i + 1) % chunkLen; r <= 1 || r == chunkLen-1 {
			check()
		}
	}
}

// TestMergeEqualsSequentialFCTs: two collectors that split a stream of
// completions (in the interleaving a two-shard run produces) merge to
// the sample multiset one collector records, per category and through
// every accessor, with more than a chunk of samples on each side.
func TestMergeEqualsSequentialFCTs(t *testing.T) {
	seq, a, b := NewCollector(0), NewCollector(0), NewCollector(0)
	const n = 3*chunkLen + 17
	for i := 0; i < n; i++ {
		cat := Category(i % int(NumCategories))
		size := units.ByteSize(1+i%50) * units.KB
		start := units.Time(i) * units.Time(units.Microsecond)
		finish := start.Add(units.Duration(5+i%9) * units.Microsecond)
		seq.FlowDone(uint64(i+1), cat, size, start, finish, 100*units.Gbps)
		shard := a
		if i%5 < 2 {
			shard = b
		}
		shard.FlowDone(uint64(i+1), cat, size, start, finish, 100*units.Gbps)
	}
	a.Merge(b)
	byFlow := func(s []FCTSample) map[uint64]FCTSample {
		m := make(map[uint64]FCTSample, len(s))
		for _, x := range s {
			m[x.Flow] = x
		}
		if len(m) != len(s) {
			t.Fatalf("%d samples for %d flows: duplicates", len(s), len(m))
		}
		return m
	}
	if got, want := a.AllFCTs(), seq.AllFCTs(); len(want) != n || cap(want) != n || !reflect.DeepEqual(byFlow(got), byFlow(want)) {
		t.Fatalf("merged AllFCTs (%d samples) differs from the sequential collector's (%d, cap %d; want %d exactly sized)", len(got), len(want), cap(want), n)
	}
	for cat := Category(0); cat < NumCategories; cat++ {
		if !reflect.DeepEqual(byFlow(a.FCTs(cat)), byFlow(seq.FCTs(cat))) {
			t.Fatalf("merged FCTs(%v) differs from the sequential collector's", cat)
		}
	}
	aAvg, aP99 := FCTStats(a.AllFCTs())
	sAvg, sP99 := FCTStats(seq.AllFCTs())
	if aAvg != sAvg || aP99 != sP99 {
		t.Fatalf("merged FCT stats (%v, %v) differ from sequential (%v, %v)", aAvg, aP99, sAvg, sP99)
	}
}
