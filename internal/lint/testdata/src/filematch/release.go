//go:build go1.21

// Package filematch pins the loader to the files `go build` compiles:
// this file's release tag holds on every supported toolchain, so it is
// linted; clock_windows.go is excluded by its name alone.
package filematch

import "time"

// Stamp is a finding, so the golden shows this file was linted.
func Stamp() time.Time { return time.Now() }
