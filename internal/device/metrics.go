package device

import (
	"floodgate/internal/metrics"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// NetMetrics bundles the instruments the device and flow-control
// layers update per event. It is carried by value on the Network; the
// zero value is fully inert (every handle is nil-safe), so unmetered
// runs pay only the embedded nil checks. Registration order is fixed
// here — it is the canonical export order.
type NetMetrics struct {
	// Per-port-class queued + parked bytes (mirrors the per-hop
	// occupancy the paper's Figs 6b/10/11 report, but continuously).
	QueuedBytes [topo.NumPortClasses]metrics.Gauge

	PFCPauses      metrics.Counter // pause transitions (switch + host)
	PFCPortsPaused metrics.Gauge   // currently paused egress ports/NICs
	ECNMarks       metrics.Counter
	Drops          metrics.Counter
	Trims          metrics.Counter
	RetxSegments   metrics.Counter // retransmitted segments put on the wire
	RTOs           metrics.Counter // go-back-N timeout rewinds

	QueueDelay metrics.Histogram // per-hop queuing delay (ps, non-incast data)
	FCT        metrics.Histogram // flow completion times (ps)

	// Floodgate module signals (updated from internal/core).
	FGWindows         metrics.Gauge // per-destination window entries
	FGWindowBytes     metrics.Gauge // occupied window bytes (init - avail summed)
	FGVOQsInUse       metrics.Gauge
	FGParkedBytes     metrics.Gauge // bytes parked across VOQs
	FGCreditsInFlight metrics.Gauge // credit frames emitted but not yet applied

	// Fault plane and recovery (PR 4; registered last to keep earlier
	// export orders stable).
	FaultLinkEvents metrics.Counter // link up/down transitions applied
	FaultLinksDown  metrics.Gauge   // links currently out of service
	FaultRestarts   metrics.Counter // switch restarts applied
	FGResyncs       metrics.Counter // Floodgate peer-restart resyncs
	WatchdogTrips   metrics.Counter // stall-watchdog firings

	// Application plane (PR 9; registered last to keep earlier export
	// orders stable). Updated from internal/app.
	App           [numAppPoints]metrics.Counter // per-request transitions, by AppPoint
	AppReqLatency metrics.Histogram             // completed request latency (ps)

	// Scale / memory plane (PR 10; registered last to keep earlier
	// export orders stable). The topology gauges are pure functions of
	// the frozen topology, set once at New — deterministic, so they
	// are safe in byte-identity-checked exports. The heap gauge is
	// nondeterministic by nature and is populated only by explicit
	// SnapshotMemStats calls (benchmarks, the scale-smoke test), never
	// during table-producing runs. The paused-entry gauges are the
	// per-host state audit's high-water marks (read with Max()): they
	// confirm the lazily allocated host maps stay small relative to
	// the host count even at 100k hosts.
	ScaleHosts        metrics.Gauge // topology host count
	ScaleRouteBytes   metrics.Gauge // resident route-state memory (topo.Topology.RouteBytes)
	ScaleBytesPerHost metrics.Gauge // topology+route bytes amortized per host
	ScaleHeapBytes    metrics.Gauge // runtime HeapAlloc at the last explicit snapshot
	HostPausedDsts    metrics.Gauge // per-host paused-destination entries (Floodgate per-dst pause)
	HostPausedFlows   metrics.Gauge // per-host BFC-paused flow entries
}

// queueDelayBounds buckets per-hop queuing delay from sub-microsecond
// to the PFC-storm regime (values in picoseconds).
var queueDelayBounds = []int64{
	int64(1 * units.Microsecond),
	int64(2 * units.Microsecond),
	int64(5 * units.Microsecond),
	int64(10 * units.Microsecond),
	int64(20 * units.Microsecond),
	int64(50 * units.Microsecond),
	int64(100 * units.Microsecond),
	int64(200 * units.Microsecond),
	int64(500 * units.Microsecond),
	int64(units.Millisecond),
	int64(10 * units.Millisecond),
}

// fctBounds buckets flow completion times across the scales the
// slow-motion clock produces (values in picoseconds).
var fctBounds = []int64{
	int64(10 * units.Microsecond),
	int64(50 * units.Microsecond),
	int64(100 * units.Microsecond),
	int64(500 * units.Microsecond),
	int64(units.Millisecond),
	int64(5 * units.Millisecond),
	int64(10 * units.Millisecond),
	int64(50 * units.Millisecond),
	int64(100 * units.Millisecond),
	int64(units.Second),
}

// NewNetMetrics registers the network's instruments on r in canonical
// order and returns the bundle of handles.
func NewNetMetrics(r *metrics.Registry) NetMetrics {
	var m NetMetrics
	for c := topo.PortClass(0); c < topo.NumPortClasses; c++ {
		m.QueuedBytes[c] = r.Gauge("net.queued_bytes."+c.String(), "bytes")
	}
	m.PFCPauses = r.Counter("net.pfc_pauses", "events")
	m.PFCPortsPaused = r.Gauge("net.pfc_ports_paused", "ports")
	m.ECNMarks = r.Counter("net.ecn_marks", "packets")
	m.Drops = r.Counter("net.drops", "packets")
	m.Trims = r.Counter("net.trims", "packets")
	m.RetxSegments = r.Counter("net.retx_segments", "packets")
	m.RTOs = r.Counter("net.rtos", "events")
	m.QueueDelay = r.Histogram("net.queue_delay_ps", "ps", queueDelayBounds)
	m.FCT = r.Histogram("net.fct_ps", "ps", fctBounds)
	m.FGWindows = r.Gauge("fg.windows", "entries")
	m.FGWindowBytes = r.Gauge("fg.window_bytes", "bytes")
	m.FGVOQsInUse = r.Gauge("fg.voqs_in_use", "voqs")
	m.FGParkedBytes = r.Gauge("fg.parked_bytes", "bytes")
	m.FGCreditsInFlight = r.Gauge("fg.credits_in_flight", "frames")
	m.FaultLinkEvents = r.Counter("fault.link_events", "events")
	m.FaultLinksDown = r.Gauge("fault.links_down", "links")
	m.FaultRestarts = r.Counter("fault.switch_restarts", "events")
	m.FGResyncs = r.Counter("fg.resyncs", "events")
	m.WatchdogTrips = r.Counter("sim.watchdog_trips", "events")
	for pt, c := range [numAppPoints][2]string{
		AppRequest: {"requests", "requests"}, AppReply: {"replies", "replies"}, AppTimeout: {"timeouts", "events"},
		AppRetry: {"retries", "attempts"}, AppHedge: {"hedges", "attempts"}, AppShed: {"shed", "requests"},
	} {
		m.App[pt] = r.Counter("app."+c[0], c[1])
	}
	m.AppReqLatency = r.Histogram("app.req_latency_ps", "ps", fctBounds)
	m.ScaleHosts = r.Gauge("scale.hosts", "hosts")
	m.ScaleRouteBytes = r.Gauge("scale.route_bytes", "bytes")
	m.ScaleBytesPerHost = r.Gauge("scale.bytes_per_host", "bytes")
	m.ScaleHeapBytes = r.Gauge("scale.heap_bytes", "bytes")
	m.HostPausedDsts = r.Gauge("net.host_paused_dsts", "entries")
	m.HostPausedFlows = r.Gauge("net.host_paused_flows", "entries")
	return m
}
