package device

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floodgate/internal/metrics"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// TestOneWritePerLifecyclePoint pins the structure observe.go exists
// for: in the data-path packages no other non-test file calls a
// stats.Collector writer, selects the NetMetrics bundle, or reaches the
// trace ring or the forensics recorder. The scan is syntactic
// (go/parser): the consumers are only reachable through a handful of
// field and method names, listed here.
func TestOneWritePerLifecyclePoint(t *testing.T) {
	// Fields that hold a consumer (on Network, Config or observers).
	consumerField := map[string]bool{"Metrics": true, "ring": true, "frx": true, "Trace": true, "Forensics": true}
	// Collector writers whose names nothing else in these packages uses...
	writer := map[string]bool{
		"FlowDone": true, "SwitchBuffer": true, "PortBuffer": true, "PFCPaused": true,
		"Received": true, "OnWire": true, "Retransmit": true, "VOQInUse": true,
	}
	// ...and the ones that are only a write when selected off a Stats field.
	statsWriter := map[string]bool{"QueueDelay": true, "Drop": true, "Trim": true, "Merge": true}
	// Ring and recorder entry points, by package or by method.
	pkgEntry := map[string]bool{"trace.Of": true, "trace.Event": true, "trace.NewBuffer": true, "forensics.NewRecorder": true}
	entryMethod := map[string]bool{
		"Record": true, "FlowState": true, "Hop": true, "EpisodeStart": true, "EpisodeEnd": true,
		"EpisodeEndAll": true, "Seal": true, "Sibling": true,
	}

	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{".", "../core", "../bfc", "../pfctag", "../app"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || (dir == "." && name == "observe.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				bad := consumerField[sel.Sel.Name] || writer[sel.Sel.Name] || entryMethod[sel.Sel.Name]
				if x, ok := sel.X.(*ast.Ident); ok && pkgEntry[x.Name+"."+sel.Sel.Name] {
					bad = true
				}
				if x, ok := sel.X.(*ast.SelectorExpr); ok && x.Sel.Name == "Stats" && statsWriter[sel.Sel.Name] {
					bad = true
				}
				if bad {
					t.Errorf("%s: %s reaches an observer outside observe.go", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if files < 15 {
		t.Fatalf("scanned only %d files: the package list has moved", files)
	}
}

// TestPauseClock drives the one pause-interval state machine Switch
// egresses and Host NICs share, and checks what its edges tell the
// collector and the registry.
func TestPauseClock(t *testing.T) {
	const us = units.Microsecond
	type step struct {
		at  units.Duration // absolute time of the step
		op  string
		ret bool // resume's return value
	}
	for _, tc := range []struct {
		name    string
		steps   []step
		paused  bool
		cum     units.Duration // closed pause time after the last step
		cumAt   units.Duration // cumAt 5 µs after the last step
		booked  units.Duration // collector's pause time
		events  int            // collector's closed intervals
		pauses  int64          // registry's pause transitions
		portsUp int64          // registry's paused-ports level
	}{
		{name: "double pause is idempotent",
			steps:  []step{{10 * us, "pause", false}, {20 * us, "pause", false}, {40 * us, "resume", true}},
			paused: false, cum: 30 * us, cumAt: 30 * us, booked: 30 * us, events: 1, pauses: 1, portsUp: 0},
		{name: "resume when not paused is a no-op",
			steps:  []step{{10 * us, "resume", false}, {20 * us, "close", false}},
			paused: false, cum: 0, cumAt: 0, booked: 0, events: 0, pauses: 0, portsUp: 0},
		{name: "cumAt includes the open interval",
			steps:  []step{{10 * us, "pause", false}, {15 * us, "resume", true}, {30 * us, "pause", false}},
			paused: true, cum: 5 * us, cumAt: 10 * us, booked: 5 * us, events: 1, pauses: 2, portsUp: 1},
		{name: "close restarts the interval without double counting",
			steps:  []step{{10 * us, "pause", false}, {50 * us, "close", false}, {50 * us, "close", false}, {70 * us, "resume", true}},
			paused: false, cum: 60 * us, cumAt: 60 * us, booked: 60 * us, events: 3, pauses: 1, portsUp: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			n := &Network{Eng: eng, observers: observers{
				Stats: stats.NewCollector(0), Metrics: NewNetMetrics(metrics.NewRegistry()),
			}}
			var c pauseClock
			for _, s := range tc.steps {
				eng.Run(units.Time(s.at))
				switch s.op {
				case "pause":
					c.pause(n, topo.LayerToR)
				case "resume":
					if got := c.resume(n, topo.LayerToR); got != s.ret {
						t.Errorf("resume at %v = %v, want %v", s.at, got, s.ret)
					}
				case "close":
					c.close(n, topo.LayerToR)
				}
			}
			now := eng.Now().Add(5 * us)
			if c.paused != tc.paused || c.cum != tc.cum || c.cumAt(now) != tc.cumAt {
				t.Errorf("clock = {paused %v cum %v cumAt %v}, want {%v %v %v}", c.paused, c.cum, c.cumAt(now), tc.paused, tc.cum, tc.cumAt)
			}
			if got := n.Stats.PFCPauseTime(topo.LayerToR); got != tc.booked || n.Stats.PFCEventCount() != tc.events {
				t.Errorf("collector booked %v in %d intervals, want %v in %d", got, n.Stats.PFCEventCount(), tc.booked, tc.events)
			}
			if p, up := n.Metrics.PFCPauses.Value(), n.Metrics.PFCPortsPaused.Value(); p != tc.pauses || up != tc.portsUp {
				t.Errorf("registry pauses %d level %d, want %d and %d", p, up, tc.pauses, tc.portsUp)
			}
		})
	}
}
