//lint:hotpath most methods here run once per packet per hop

// The observation points. Four consumers watch a run — the collector
// (the paper's tables), the metrics registry and trace ring (-obs), the
// forensics recorder (-forensics) — and only this file knows which are
// on and what each is told: one method per lifecycle point, called once
// from where the thing happens, nil-gating inside (table: DESIGN.md §8).

package device

import (
	"runtime"

	"floodgate/internal/forensics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// observers is one Network's consumer set. Stats is always present; the
// zero Metrics is inert (nil-safe handles); a nil ring or frx is off.
type observers struct {
	Stats   *stats.Collector
	Metrics NetMetrics
	ring    *trace.Buffer
	frx     *forensics.Recorder
}

func (c *Config) observers() observers {
	return observers{Stats: c.Stats, Metrics: c.Metrics, ring: c.Trace, frx: c.Forensics}
}

// forShard returns shard i's config. Shard 0 keeps the base consumers;
// each further shard records into a sibling collector and recorder, which
// MergedStats and forensics.BuildReport fold back in shard order. Registry
// handles and the ring are shared as they are: exp keeps -obs to one engine.
func (c Config) forShard(i int, eng *sim.Engine, assign []int) Config {
	c.Engine, c.Shard = eng, nil
	if assign != nil { // nil is topo.Partition's one shard: own the whole topology
		c.Shard = &ShardSpec{Index: i, Assign: assign}
	}
	if i > 0 {
		c.Stats = stats.NewCollector(c.Stats.BinWidth())
		if c.Forensics != nil {
			c.Forensics = c.Forensics.Sibling()
		}
	}
	return c
}

// MergedStats folds shards 1..k-1 into shard 0's collector and returns
// it. Call once, after the run completes.
func (c *Cluster) MergedStats() *stats.Collector {
	agg := c.Nets[0].Stats
	for _, n := range c.Nets[1:] {
		agg.Merge(n.Stats)
	}
	return agg
}

// Recorders returns each shard's forensics recorder in shard order;
// empty when forensics is disabled.
func (c *Cluster) Recorders() []*forensics.Recorder {
	var rs []*forensics.Recorder
	for _, n := range c.Nets {
		if n.frx != nil {
			rs = append(rs, n.frx)
		}
	}
	return rs
}

// record puts packet p's lifecycle point on the ring; aux is the op's
// counterpart node (the credited destination on OpCredit, the crediting
// switch on OpUnpark) the Perfetto exporter links cause to effect with.
// The nil check stays apart from ringPut so that it inlines.
func (n *Network) record(op trace.Op, node packet.NodeID, p *packet.Packet, aux packet.NodeID) {
	if n.ring != nil {
		n.ringPut(op, node, p, aux)
	}
}

func (n *Network) ringPut(op trace.Op, node packet.NodeID, p *packet.Packet, aux packet.NodeID) {
	e := trace.Of(n.Eng.Now(), op, node, p)
	e.Aux = aux
	n.ring.Record(e)
}

// recordFlow puts a packet-less flow point on the ring: Seq carries the
// first unacked byte and Size the bytes in flight.
func (n *Network) recordFlow(op trace.Op, node packet.NodeID, f *Flow) {
	if n.ring != nil {
		n.ring.Record(trace.Event{
			At: n.Eng.Now(), Op: op, Node: node, Kind: packet.Data,
			Flow: f.ID, Seq: f.sndUna, Size: f.inflight(), Dst: f.Dst,
		})
	}
}

// built: the network exists. The scale gauges are pure functions of the
// frozen topology, so they are safe in byte-identity-checked exports.
func (n *Network) built() {
	t := n.Topo
	n.Metrics.ScaleHosts.Set(int64(t.NumHosts()))
	n.Metrics.ScaleRouteBytes.Set(t.RouteBytes())
	if hosts := int64(t.NumHosts()); hosts > 0 {
		n.Metrics.ScaleBytesPerHost.Set((t.StructBytes() + t.RouteBytes()) / hosts)
	}
}

// sealed: registration closed with nflows flow IDs; the collector makes
// room for every completion this shard's receivers may file.
func (n *Network) sealed(nflows int) {
	n.Stats.Reserve(n.fcts)
	if n.frx != nil {
		n.frx.Seal(nflows)
	}
}

// SnapshotMemStats populates the heap gauge from runtime.MemStats and
// returns the live-heap byte count. Heap size depends on GC timing and
// host parallelism, so only explicit memory-budget probes call this —
// never a path that feeds a byte-identity-checked table or obs export.
func (n *Network) SnapshotMemStats() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc)
	n.Metrics.ScaleHeapBytes.Set(heap)
	return heap
}

// ---- Switch points ----

// notePort: egress out's queued + parked bytes (swPort.bytes is kept for
// this alone) moved by delta; out < 0 is a packet with no egress yet.
func (s *Switch) notePort(out int, delta units.ByteSize) {
	if out < 0 {
		return
	}
	o := s.port(out)
	o.bytes += delta
	class := s.node.Ports[out].Class
	s.net.Metrics.QueuedBytes[class].Add(int64(delta))
	s.net.Stats.PortBuffer(s.net.Eng.Now(), int32(s.node.ID), int32(out), class, o.bytes)
}

// trimmed: NDP cut a payload.
func (n *Network) trimmed() {
	n.Stats.Trim()
	n.Metrics.Trims.Inc()
}

// enqueued: p entered one of egress out's data queues. A final segment is
// stamped with the port's pause clock so transmitted can split its wait
// into queueing and PFC-blocked time.
func (n *Network) enqueued(s *Switch, out int, p *packet.Packet) {
	if n.frx != nil && p.Last && !p.Trimmed {
		p.EnqPauseCum = s.ports[out].pfc.cumAt(n.Eng.Now())
	}
	n.record(trace.OpEnqueue, s.node.ID, p, 0)
}

// transmitted: egress out started serialising p. A data packet (trimmed
// headers keep Kind Data) left its queue, of hopSize bytes before INT grew
// it: queuing time is attributed to non-incast data only (Fig 11b), and a
// data dequeue finds the port unpaused (pick skips paused ports), so its
// clock is closed and the PFC overlap is cum's advance since enqueue.
func (n *Network) transmitted(s *Switch, out int, p *packet.Packet, hopSize units.ByteSize, now units.Time) {
	n.Stats.OnWire(now, wireClass(p.Kind), p.Size)
	if p.Kind != packet.Data {
		return
	}
	tp := &s.node.Ports[out]
	wait := now.Sub(p.EnqueuedAt)
	if p.Cat != packet.CatIncast {
		n.Stats.QueueDelay(tp.Class, wait)
		n.Metrics.QueueDelay.Observe(int64(wait))
	}
	if n.frx != nil && p.Last && !p.Trimmed {
		n.frx.Hop(p.Flow, wait, s.ports[out].pfc.cum-p.EnqPauseCum, units.TxTime(hopSize, tp.Rate))
	}
	n.record(trace.OpTx, s.node.ID, p, 0)
}

func wireClass(k packet.Kind) stats.WireClass {
	switch k {
	case packet.Data:
		return stats.WireData
	case packet.Credit, packet.SwitchSYN:
		return stats.WireCredit
	default:
		return stats.WireCtrl
	}
}

// Drop loses p at node — buffer overflow, injected loss, a dead link, a
// restart emptying queues or VOQs — and returns it to the pool. A lost
// credit can no longer be applied upstream.
func (n *Network) Drop(node packet.NodeID, p *packet.Packet) {
	n.Stats.Drop()
	n.Metrics.Drops.Inc()
	if p.Kind == packet.Credit {
		n.Metrics.FGCreditsInFlight.Add(-1)
	}
	n.record(trace.OpDrop, node, p, 0)
	n.Recycle(p)
}

// pauseClock is the PFC pause history of one transmitter (a switch egress
// or a host NIC): paused now, since when, and the closed pause time so
// far — the basis forensics splits waits against. It lives here because
// every edit of it is one pauseEdge.
type pauseClock struct {
	paused bool
	start  units.Time
	cum    units.Duration
}

// pauseEdge: the transmitter at layer was PFC-paused (delta +1), resumed
// (-1), or — Finalize's close (0) — had its still-open interval booked
// and restarted, so whatever closes it later counts only the time after.
func (n *Network) pauseEdge(c *pauseClock, layer topo.Layer, delta int64) {
	now := n.Eng.Now()
	if delta > 0 {
		n.Metrics.PFCPauses.Inc()
	} else {
		open := now.Sub(c.start)
		c.cum += open
		n.Stats.PFCPaused(layer, open)
	}
	c.paused, c.start = delta >= 0, now
	n.Metrics.PFCPortsPaused.Add(delta)
}

// pause opens an interval; a second pause is a no-op.
func (c *pauseClock) pause(n *Network, layer topo.Layer) {
	if !c.paused {
		n.pauseEdge(c, layer, +1)
	}
}

// resume closes the open interval and reports whether there was one (the
// caller then restarts its transmitter).
func (c *pauseClock) resume(n *Network, layer topo.Layer) bool {
	was := c.paused
	if was {
		n.pauseEdge(c, layer, -1)
	}
	return was
}

// close books an interval still open at the end of a run.
func (c *pauseClock) close(n *Network, layer topo.Layer) {
	if c.paused {
		n.pauseEdge(c, layer, 0)
	}
}

// cumAt is the cumulative paused time at now, open interval included.
func (c *pauseClock) cumAt(now units.Time) units.Duration {
	if c.paused {
		return c.cum + now.Sub(c.start)
	}
	return c.cum
}

// ---- Host points ----

// sendState: sender f on host h changed wait state (the check inlines).
func (n *Network) sendState(h *Host, f *Flow, st forensics.SendState) {
	if n.frx != nil {
		n.flowState(h, f, st)
	}
}

func (n *Network) flowState(h *Host, f *Flow, st forensics.SendState) {
	now := n.Eng.Now()
	n.frx.FlowState(f.ID, st, now, h.pfc.cumAt(now))
}

// sent: a host NIC took data segment p.
func (n *Network) sent(node packet.NodeID, p *packet.Packet) {
	n.record(trace.OpSend, node, p, 0)
	if p.Retrans {
		n.Metrics.RetxSegments.Inc()
		n.record(trace.OpRetx, node, p, 0)
	}
}

// resend: loss recovery made sender f go back — an NDP NACK, or (rto) a
// go-back-N timeout about to rewind f.inflight() bytes.
func (n *Network) resend(node packet.NodeID, f *Flow, rto bool) {
	n.Stats.Retransmit()
	if rto {
		n.Metrics.RTOs.Inc()
		n.recordFlow(trace.OpRTO, node, f)
	}
}

// received: payload new bytes of f were delivered. delivered is also the
// progress signal the stall watchdog monitors.
func (n *Network) received(f *Flow, payload units.ByteSize, now units.Time) {
	n.delivered += payload
	n.Stats.Received(now, f.Cat, payload)
}

// flowDone: f's last byte arrived at its receiver. The collector keeps
// the FCT only and takes no line rate; the forensics recorder, when on,
// keeps it per flow for Cluster.FlowMetas.
func (n *Network) flowDone(f *Flow, now units.Time) {
	n.Stats.FlowDone(uint64(f.ID), f.Cat, f.Size, f.Start, now, 0)
	n.Metrics.FCT.Observe(int64(now.Sub(f.Start)))
	if n.frx != nil {
		n.frx.Done(f.ID, now.Sub(f.Start))
	}
	if n.OnFlowDone != nil {
		n.OnFlowDone(f, now)
	}
}

// hostHolds: a host's per-destination / per-flow pause tables changed size.
func (n *Network) hostHolds(dsts, flows int) {
	n.Metrics.HostPausedDsts.Add(int64(dsts))
	n.Metrics.HostPausedFlows.Add(int64(flows))
}

// ---- Fault-plane points ----

// linkEdge: a link went down (+1) or came back (-1); its Link.A half counts.
func (n *Network) linkEdge(down int) {
	n.faults.linkEvents++
	n.faults.linksDown += down
	n.Metrics.FaultLinkEvents.Inc()
	n.Metrics.FaultLinksDown.Add(int64(down))
}

// switchRestarted: a switch lost its soft state.
func (n *Network) switchRestarted() {
	n.faults.restarts++
	n.Metrics.FaultRestarts.Inc()
}

// ---- Flow-control module points (core, pfctag) ----

// FGWindow: a switch's Floodgate window table grew by entries and its
// occupied (un-credited) bytes moved by bytes.
func (n *Network) FGWindow(entries int, bytes units.ByteSize) {
	n.Metrics.FGWindows.Add(int64(entries))
	n.Metrics.FGWindowBytes.Add(int64(bytes))
}

// VOQs: a module's occupied-VOQ count at one switch moved by delta to inUse.
func (n *Network) VOQs(delta, inUse int) {
	n.Metrics.FGVOQsInUse.Add(int64(delta))
	n.Stats.VOQInUse(inUse)
}

// Episode: node started (open) or stopped treating dst as an incast suspect.
func (n *Network) Episode(node, dst packet.NodeID, open bool) {
	if n.frx == nil {
		return
	}
	if open {
		n.frx.EpisodeStart(node, dst, n.Eng.Now())
	} else {
		n.frx.EpisodeEnd(node, dst, n.Eng.Now())
	}
}

// Parked: node's module parked p; its destination now holds parked bytes there.
func (n *Network) Parked(node packet.NodeID, p *packet.Packet, parked units.ByteSize) {
	n.Metrics.FGParkedBytes.Add(int64(p.Size))
	if n.frx != nil {
		n.frx.Parked(node, p.Dst, p.Flow, parked)
	}
	n.record(trace.OpPark, node, p, 0)
}

// Unparked: a credit that switch from sent at sentAt released p, parked
// since p.EnqueuedAt: the wait splits into window time and credit flight.
func (n *Network) Unparked(node packet.NodeID, p *packet.Packet, from packet.NodeID, sentAt units.Time) {
	n.Metrics.FGParkedBytes.Add(-int64(p.Size))
	if n.frx != nil {
		now := n.Eng.Now()
		n.frx.Unparked(p.Flow, p.Last && !p.Trimmed, now.Sub(p.EnqueuedAt), now.Sub(sentAt))
	}
	n.record(trace.OpUnpark, node, p, from)
}

// CreditSent: node emitted credit frame cr for dst.
func (n *Network) CreditSent(node packet.NodeID, cr *packet.Packet, dst packet.NodeID) {
	n.Metrics.FGCreditsInFlight.Add(1)
	n.record(trace.OpCredit, node, cr, dst)
}

// FGReset: node's Floodgate module lost its soft state with this much in
// its tables; the parked packets themselves went through Drop.
func (n *Network) FGReset(node packet.NodeID, windows int, windowBytes, parked units.ByteSize, voqs int) {
	if n.frx != nil {
		n.frx.EpisodeEndAll(node, n.Eng.Now())
	}
	n.Metrics.FGParkedBytes.Add(-int64(parked))
	n.VOQs(-voqs, 0)
	n.FGWindow(-windows, -windowBytes)
}

// ---- Application-plane points (internal/app) ----

// AppPoint names a per-request transition of the application plane.
type AppPoint uint8

// The transitions, in the registry's export order.
const (
	AppRequest AppPoint = iota // closed-loop request issued
	AppReply                   // worker reply delivered to its client
	AppTimeout                 // application deadline expired
	AppRetry                   // timeout-driven retry attempt launched
	AppHedge                   // hedged attempt launched
	AppShed                    // request shed by an open circuit breaker
	numAppPoints
)

// buffered: a switch's shared-buffer occupancy changed.
func (n *Network) buffered(node packet.NodeID, used units.ByteSize) {
	n.Stats.SwitchBuffer(int32(node), used)
}

// arrived: data packet p reached its destination host (duplicates too).
func (n *Network) arrived(node packet.NodeID, p *packet.Packet) {
	n.record(trace.OpDeliver, node, p, 0)
}

// AppFlow puts an attempt flow's application-plane point on the ring.
func (n *Network) AppFlow(op trace.Op, node packet.NodeID, f *Flow) { n.recordFlow(op, node, f) }

// Points only the registry hears of: one count each.
func (n *Network) marked()                       { n.Metrics.ECNMarks.Inc() }                    // RED set CE on a packet
func (n *Network) CreditLanded()                 { n.Metrics.FGCreditsInFlight.Add(-1) }         // a credit frame was applied upstream
func (n *Network) Resynced()                     { n.Metrics.FGResyncs.Inc() }                   // a switch saw its upstream's PSN rebase
func (n *Network) WatchdogTripped()              { n.Metrics.WatchdogTrips.Inc() }               // the executor's stall check fired
func (n *Network) AppEvent(pt AppPoint)          { n.Metrics.App[pt].Inc() }                     // a request made transition pt
func (n *Network) AppLatency(lat units.Duration) { n.Metrics.AppReqLatency.Observe(int64(lat)) } // a request completed after lat
