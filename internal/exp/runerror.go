package exp

import (
	"fmt"
	"strings"

	"floodgate/internal/device"
	"floodgate/internal/units"
)

// RunError is the structured form of a panic raised inside one
// simulation run. The parallel executor (parallel.go) recovers the
// panic at the run boundary, wraps it in a RunError carrying the
// run's config content hash, and lets the remaining runs of a sweep
// proceed — one faulting configuration no longer kills `-exp all`.
type RunError struct {
	// ConfigHash is the faulting RunConfig's content hash (runKey, which
	// also names its -obs files), so the failing run can be identified
	// and replayed exactly.
	ConfigHash string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements error. The stack is kept out of the one-line
// message; callers wanting it read the field.
func (e *RunError) Error() string {
	return fmt.Sprintf("exp: run %s panicked: %v", e.ConfigHash, e.Value)
}

// StallDiagnosis is the structured report produced when the progress
// watchdog trips: the run delivered no new payload bytes for a full
// horizon, so instead of burning the remaining time bound the run
// stops and explains where the bytes are stuck.
type StallDiagnosis struct {
	At              units.Time     // sim time the watchdog tripped
	Horizon         units.Duration // progress horizon that elapsed without delivery
	IncompleteFlows int            // flows still unfinished

	// Delivered bytes, Floodgate window state, pause and link state,
	// summed over every shard.
	device.StallSnapshot
}

// String renders the diagnosis as a compact multi-line report.
func (d *StallDiagnosis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stalled at %v: no delivery for %v\n", d.At, d.Horizon)
	fmt.Fprintf(&b, "  delivered %v, %d flows incomplete\n", d.DeliveredBytes, d.IncompleteFlows)
	fmt.Fprintf(&b, "  windows: %d exhausted, %v deficit, %v parked in VOQs\n",
		d.ExhaustedWindows, d.WindowDeficit, d.ParkedBytes)
	fmt.Fprintf(&b, "  pauses: %d switch ports, %d hosts; links down: %d",
		d.PausedSwitchPorts, d.PausedHosts, d.LinksDown)
	return b.String()
}
