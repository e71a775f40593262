//go:build !simdebug

package device

import "floodgate/internal/packet"

// Without the simdebug tag flowDebug is empty, a flowRef — a stored
// reference to a Flow: a send-queue slot, a wake timer's argument, an
// rtoQ entry — is just the pointer, and the assertions compile away.
type flowDebug struct{}

func (d flowDebug) acquired() flowDebug { return d }
func (f *Flow) poolReleased()           {}
func (f *Flow) assertIs(packet.FlowID)  {}

type flowRef struct{ f *Flow }

func refOf(f *Flow) flowRef { return flowRef{f} }

// take returns the referenced flow (nil for the zero flowRef).
func (r flowRef) take(string) *Flow { return r.f }
