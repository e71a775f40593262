package exp

import (
	"fmt"

	"floodgate/internal/cc/swift"
	"floodgate/internal/stats"
	"floodgate/internal/workload"
)

// SWIFT returns the delay-based Swift congestion control (§2.3 cites
// it among the reactive protocols; included as an extension).
func SWIFT(o Options) Scheme {
	return Scheme{Name: "Swift", CC: swift.Default(), cc: "swift.Default"}
}

// ResourceOverhead reproduces §7.4's resource accounting on a live
// run: the peak per-switch window-table size (stateful memory), peak
// VOQ usage, and the bandwidth shares of credit and control traffic.
func ResourceOverhead(o Options) []Table {
	t := Table{
		Title:  "§7.4 resource overhead (WebServer incastmix, DCQCN+Floodgate)",
		Header: []string{"metric", "value", "paper"},
	}
	tp := o.leafSpine()
	c := runJobs(o, 1, func(int) *cell {
		return cellOf(o, mixRun(o, tp, workload.WebServer, WithFloodgate(o, DCQCN(o), baseBDPOf(tp))))
	})[0]
	t.AddRow("peak window entries / switch", fmt.Sprintf("%d", c.windows),
		fmt.Sprintf("<= hosts (%d); worst case scales with host count", tp.NumHosts()))
	t.AddRow("peak VOQs / switch", fmt.Sprintf("%d", c.voqs),
		"dozens suffice; mostly 1 (§6.1)")
	t.AddRow("credit bandwidth share", fmt.Sprintf("%.3f%%", 100*c.share(stats.WireCredit)), "0.175% (practical)")
	t.AddRow("ctrl (ACK/CNP) bandwidth share", fmt.Sprintf("%.2f%%", 100*c.share(stats.WireCtrl)), "~4.5%")
	t.Comment = "a window is kept from its destination's first packet until the switch restarts (retiring idle windows is ROADMAP item 3), so the peak counts every destination a switch forwarded to, up to the host count"
	return []Table{t}
}

// SwiftCompat runs Swift with and without Floodgate on the incast mix
// (extension beyond the paper's three carried protocols).
func SwiftCompat(o Options) []Table {
	t := Table{
		Title:  "Extension: Swift ± Floodgate (WebServer incastmix)",
		Header: []string{"scheme", "poisson avg", "poisson p99", "maxSwitchBuf"},
	}
	t.Rows = runJobs(o, 2, func(idx int) []string {
		tp := o.leafSpine()
		c := cellOf(o, mixRun(o, tp, workload.WebServer, schemePair(o, SWIFT, tp)[idx]))
		return []string{c.name, fmtDur(c.poisson[0]), fmtDur(c.poisson[1]), fmtBytes(c.maxBuf)}
	})
	t.Comment = "the hop-by-hop layer composes with a fourth, delay-based CC unchanged"
	return []Table{t}
}
