//go:build simdebug

package device

import (
	"fmt"

	"floodgate/internal/units"
)

// checkBuffer is the simdebug variant: it asserts the books of a
// switch's shared buffer (§6: one pool per switch, dynamic-threshold
// PFC) wherever they must balance — after a frame is admitted, a data
// frame is dequeued, a serialization completes, a parked frame is
// re-injected, and a restart (where the modules' Restart hooks release
// what they parked). Every charged byte is counted
// once by ingress port, and once either by egress port (queued or
// parked) or as the frame mid-serialization whose release txDone owes.
// A violation panics there, naming the time, switch, call site, law and
// the two numbers, instead of surfacing later as a skewed PFC threshold
// or buffer maximum.
func (s *Switch) checkBuffer(where string) {
	if s.used < 0 {
		s.lawBroken(where, "bounds: 0 ≤ used", s.used, 0)
	}
	if limit := s.net.Cfg.BufferSize; s.used > limit {
		s.lawBroken(where, "bounds: used ≤ BufferSize", s.used, limit)
	}
	// A port never minted holds no bytes either way: only minted ones are
	// walked.
	var in, out units.ByteSize
	for i, o := range s.ports {
		if o == nil {
			continue
		}
		if o.ingress < 0 {
			s.lawBroken(where, fmt.Sprintf("bounds: ingress[%d] ≥ 0", i), o.ingress, 0)
		}
		if o.bytes < 0 {
			s.lawBroken(where, fmt.Sprintf("bounds: portBytes[%d] ≥ 0", i), o.bytes, 0)
		}
		in += o.ingress
		out += o.bytes
		if o.busy && o.pendCharged {
			out += o.pendSize
		}
	}
	if in != s.used {
		s.lawBroken(where, "ingress: used == Σ ingress", in, s.used)
	}
	if out != s.used {
		s.lawBroken(where, "egress: used == Σ portBytes + serialising", out, s.used)
	}
}

// checkRelease bounds every release, also where checkBuffer does not
// run: only bytes admission charged go back, so no book goes below zero.
func (s *Switch) checkRelease(inPort int) {
	if s.used < 0 {
		s.lawBroken("release", "bounds: 0 ≤ used", s.used, 0)
	}
	if inPort >= 0 && s.ports[inPort].ingress < 0 {
		s.lawBroken("release", fmt.Sprintf("bounds: ingress[%d] ≥ 0", inPort), s.ports[inPort].ingress, 0)
	}
}

func (s *Switch) lawBroken(where, law string, got, want units.ByteSize) {
	panic(fmt.Sprintf("device: buffer law broken at %v on switch %d (%s): %s: %d vs %d",
		s.net.Eng.Now(), s.node.ID, where, law, got, want))
}
