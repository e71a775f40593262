package core

// Test-only views of a module, exported to the core_test package.

// Grouped reports whether this switch splits its VOQ pool by traffic
// direction (middle-layer deadlock avoidance, §4.2).
func (m *Module) Grouped() bool { return m.grouped }
