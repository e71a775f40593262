//go:build !simdebug

package device

// checkBuffer is a no-op without the simdebug tag: the shared-buffer
// law compiles away.
func (s *Switch) checkBuffer(string) {}
