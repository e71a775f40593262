//go:build !simdebug

package device

// checkBuffer and checkRelease are no-ops without the simdebug tag: the
// shared-buffer law compiles away.
func (s *Switch) checkBuffer(string) {}
func (s *Switch) checkRelease(int)   {}
