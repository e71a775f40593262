//go:build simdebug

package device

import (
	"fmt"

	"floodgate/internal/packet"
)

// flowDebug is the simdebug variant: gen counts the lives of a pooled
// Flow object (bumped at every release) and free marks one sitting in
// the pool, so a reference that outlives the life it was taken in fails
// loudly where it surfaces instead of steering some later flow.
type flowDebug struct {
	gen  uint32
	free bool
}

// acquired is the stamp of an object leaving the pool.
func (d flowDebug) acquired() flowDebug { return flowDebug{gen: d.gen} }

// poolReleased ends the object's current life; it panics if the object
// is already in the pool (two owners).
func (f *Flow) poolReleased() {
	if f.dbg.free {
		panic(fmt.Sprintf("device: double release of flow %d", f.ID))
	}
	f.dbg.free = true
	f.dbg.gen++
}

// assertIs panics if a live-table slot holds a pooled object or one
// that has moved on to another flow.
func (f *Flow) assertIs(id packet.FlowID) {
	if f != nil && (f.dbg.free || f.ID != id) {
		panic(fmt.Sprintf("device: use after release: live slot of flow %d holds a recycled object (now flow %d)", id, f.ID))
	}
}

// flowRef is a stored reference to a Flow — a send-queue slot, a wake
// timer's argument, an rtoQ entry — stamped with the life it was taken in.
type flowRef struct {
	f   *Flow
	id  packet.FlowID
	gen uint32
}

func refOf(f *Flow) flowRef { return flowRef{f, f.ID, f.dbg.gen} }

// take returns the referenced flow (nil for the zero flowRef), panicking
// if its object was released since the reference was stored.
func (r flowRef) take(where string) *Flow {
	if r.f != nil && (r.f.dbg.free || r.f.dbg.gen != r.gen) {
		panic(fmt.Sprintf("device: use after release of flow %d in %s", r.id, where))
	}
	return r.f
}
