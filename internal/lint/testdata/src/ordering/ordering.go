// Package ordering exercises the same-timestamp priority rule:
// tie-break priorities must come from the sim.Pri* ladder, and event
// times must not derive from nondeterministic sources.
package ordering

import (
	"time"

	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// wire carries a ladder priority in a field, like device.wire.
type wire struct{ pri sim.Pri }

func newWire(dir uint32) *wire {
	return &wire{pri: sim.WirePri(dir)}
}

// Ladder schedules with ladder-derived priorities — clean.
func Ladder(e *sim.Engine, w *wire, dir uint32) {
	e.AtArgPri(units.Time(10), func(any) {}, nil, sim.WirePri(dir))
	e.AtArgPri(units.Time(20), func(any) {}, nil, w.pri)
	e.AtArgPri(units.Time(30), func(any) {}, nil, sim.PriTimer)
}

// Raw passes a bare literal — tie-break values collide.
func Raw(e *sim.Engine) {
	e.AtArgPri(units.Time(10), func(any) {}, nil, 3)
}

// Laundered passes a raw constant through a sim.Pri variable: the
// literal is flagged where it becomes a priority.
func Laundered(e *sim.Engine) {
	var p sim.Pri = 7
	e.AtArgPri(units.Time(10), func(any) {}, nil, p)
}

// Converted builds a rung by conversion instead of sim.WirePri.
func Converted(e *sim.Engine, dir uint32) {
	e.AtArgPri(units.Time(10), func(any) {}, nil, sim.Pri(dir))
}

// MapOrder derives the priority from map iteration order.
func MapOrder(e *sim.Engine, m map[uint32]bool) {
	for k := range m {
		e.AtArgPri(units.Time(10), func(any) {}, nil, sim.WirePri(k))
	}
}

// WallTime schedules at a wall-clock-derived delay.
func WallTime(e *sim.Engine) {
	d := units.Duration(time.Now().UnixNano())
	e.After(d, func() {})
}
