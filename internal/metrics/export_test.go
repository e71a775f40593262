package metrics

// Test-only views of the instruments.

// Count returns the number of observations.
func (h Histogram) Count() int64 {
	if h.h == nil {
		return 0
	}
	return h.h.val
}
