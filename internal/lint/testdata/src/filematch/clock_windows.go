// Built only on Windows, by file name (there is no //go:build line).
// Elsewhere its envread is no finding and its allow is not stale.
package filematch

import (
	"os"
	"time"
)

func hostClock() time.Time { return time.Now() } //lint:allow walltime Windows-only host clock

func home() string { return os.Getenv("USERPROFILE") }
