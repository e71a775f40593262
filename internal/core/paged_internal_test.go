package core

import (
	"testing"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// TestPagedTable pins paged's layout: the first destination touched
// lives inline, a second mints its page, entries never move as later
// ones arrive, a never-touched destination off every minted page reads
// nil, and clear empties the inline entry and the pages alike.
func TestPagedTable(t *testing.T) {
	tabs := make([]paged[downChan], 1) // as Module.down, which Restart clears
	tb := &tabs[0]
	if tb.get(0) != nil || tb.get(700) != nil {
		t.Fatal("an empty table returned an entry")
	}

	a := tb.at(700)
	if a != &tb.first || tb.pages != nil {
		t.Fatalf("first destination not inline (%d pages)", len(tb.pages))
	}
	a.cumFwd = 1
	b := tb.at(3)
	if b == &tb.first || len(tb.pages) != 1 || tb.pages[0] == nil {
		t.Fatalf("second destination not on page 0 (%d pages)", len(tb.pages))
	}
	b.cumFwd = 2
	for _, d := range []packet.NodeID{0, 4, 255, 256, 5000} { // 5000 grows the root
		tb.at(d).cumFwd = units.ByteSize(10 + d)
	}
	if tb.at(700) != a || tb.get(700) != a || tb.at(3) != b || tb.get(3) != b {
		t.Fatal("an entry moved when later destinations arrived")
	}
	if a.cumFwd != 1 || b.cumFwd != 2 || tb.get(0).cumFwd != 10 || tb.get(5000).cumFwd != 5010 {
		t.Fatal("an entry lost its value when later destinations arrived")
	}
	if tb.get(1000) != nil {
		t.Fatal("a destination on a never-minted page is not nil")
	}
	if e := tb.get(5); e == nil || *e != (downChan{}) {
		t.Fatalf("an untouched destination on a minted page reads %v, want a zero entry", e)
	}

	clear(tabs)
	for _, d := range []packet.NodeID{700, 3, 0, 5000} {
		if tb.get(d) != nil {
			t.Fatalf("destination %d survived clear", d)
		}
	}
	if tb.at(3) != &tb.first {
		t.Fatal("after clear the next destination does not take the inline slot")
	}
	if tb.get(2) != nil {
		t.Fatal("destination 2 reads the inline entry of destination 3")
	}
}
