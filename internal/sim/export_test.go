package sim

// Test-only views of the engine.

// Pending reports the number of live events still queued in O(1).
func (e *Engine) Pending() int { return e.live }
