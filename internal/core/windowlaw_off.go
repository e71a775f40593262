//go:build !simdebug

package core

// checkWindow is a no-op without the simdebug tag: the window
// conservation law compiles away.
func (m *Module) checkWindow(*dstState) {}
