//go:build simdebug

package core

import (
	"fmt"

	"floodgate/internal/units"
)

// checkWindow is the simdebug variant: it asserts the window
// conservation law for one (switch, dst) after every window decrement
// and every credit apply. The window's free bytes plus the bytes still
// outstanding on every downstream channel must equal init, and the free
// bytes must lie in [0, init]. A violation panics there, naming the
// time, switch, destination, law and the two numbers, instead of
// surfacing later as a leaked or inflated window. The law holds across
// credit loss, switchSYN resync and Restart epochs: a restart zeroes
// the whole record, and the resync paths only move lastCum forward,
// clamped to sent.
func (m *Module) checkWindow(w *dstState) {
	var outstanding units.ByteSize
	for i := range w.ports {
		outstanding += w.ports[i].sent - w.ports[i].lastCum
	}
	if got := w.avail + outstanding; got != w.init {
		m.lawBroken(w, "conservation: avail + Σ ports (sent − lastCum) == init", got, w.init)
	}
	if w.avail < 0 {
		m.lawBroken(w, "bounds: avail >= 0", w.avail, 0)
	}
	if w.avail > w.init {
		m.lawBroken(w, "bounds: avail <= init", w.avail, w.init)
	}
}

func (m *Module) lawBroken(w *dstState, law string, got, want units.ByteSize) {
	panic(fmt.Sprintf("core: window law broken at %v on switch %d, dst %d: %s: %d vs %d",
		m.now(), m.sw.Node().ID, w.dst, law, got, want))
}
