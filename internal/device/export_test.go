package device

import "fmt"

// Test-only views of device state.

// DebugString reports a flow's transfer state (diagnostics).
func (f *Flow) DebugString() string {
	return fmt.Sprintf("flow %d %d->%d size=%v start=%v sndNxt=%v sndUna=%v rcvNxt=%v queued=%v rtoSeq=%v senderDone=%v",
		f.ID, f.Src, f.Dst, f.Size, f.Start, f.sndNxt, f.sndUna, f.rcvNxt, f.queued, f.rtoSeq, f.senderDone)
}
