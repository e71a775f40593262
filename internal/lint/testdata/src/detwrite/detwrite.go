// Package detwrite exercises the nondeterministic-write taint rule:
// values tainted by map order, wall clock, runtime shape or pointer
// identity must not reach stats, metrics or shard-shared state.
package detwrite

import (
	"runtime"
	"unsafe"

	"floodgate/internal/device"
	"floodgate/internal/metrics"
	"floodgate/internal/packet"
	"floodgate/internal/stats"
	"floodgate/internal/units"
)

// Seen is shared across every shard on purpose (allowlisted below);
// the shardsafety fact it carries makes nondeterministic writes into
// it findings even though the sharing itself is sanctioned.
var Seen map[uint64]int

// Install shares Seen across shards deliberately: the shardsafety
// finding is allowlisted, but the rule still exports the fact.
func Install(nets []*device.Network) {
	for _, n := range nets {
		n.OnFlowDone = func(*device.Flow, units.Time) {
			Seen[0] = 1 //lint:allow shardsafety coordinator-only map, read at barrier windows
		}
	}
}

// CountGoroutines writes runtime shape into the shard-shared map —
// flagged by composing detwrite's taint with shardsafety's fact.
func CountGoroutines() {
	Seen[0] = runtime.NumGoroutine()
}

// RecordSizes folds per-flow rows into the collector in map iteration
// order — the order taints what each bin records.
func RecordSizes(c *stats.Collector, sizes map[uint64]units.ByteSize) {
	for id, size := range sizes {
		c.FlowDone(id, 0, size, 0, 0, 0)
	}
}

// ReportBuffers leaks per-host map order into the stats collector:
// maprange flags the loop and detwrite the write.
func ReportBuffers(c *stats.Collector, occ map[packet.NodeID]units.ByteSize) {
	for n, b := range occ {
		c.SwitchBuffer(int32(n), b)
	}
}

// ReportAllowed shows the rules are independent: an order-independence
// claim about the loop does not license the tainted sink write.
func ReportAllowed(c *stats.Collector, occ map[packet.NodeID]units.ByteSize) {
	for n, b := range occ { //lint:allow maprange fixture: claims an order-independent reduction, which does not cover the sink write
		c.SwitchBuffer(int32(n), b)
	}
}

// Shape leaks the host's parallelism into a gauge.
func Shape(g metrics.Gauge) {
	g.Set(int64(runtime.GOMAXPROCS(0)))
}

// Identity observes a pointer's address — run-varying identity.
func Identity(h metrics.Histogram, f *device.Flow) {
	h.Observe(int64(uintptr(unsafe.Pointer(f))))
}

// Fold is the sanctioned shape: an order-independent reduction over a
// map, then one deterministic write. The commutative accumulation does
// not taint total.
func Fold(c *stats.Collector, sizes map[uint64]units.ByteSize) {
	var total units.ByteSize
	for _, size := range sizes { //lint:allow maprange order-independent sum; one write after the loop
		total += size
	}
	c.SwitchBuffer(0, total)
}
