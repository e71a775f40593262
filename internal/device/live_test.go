package device

import (
	"testing"

	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// TestLiveTableFollowsFlowsInFlight runs a short Memcached churn (tens of
// thousands of flows, most of one segment) through a Cluster of one, two
// and four shards, and holds the live tables to the flows in flight:
//   - at every window, each shard's pages held cover no more than its
//     in-flight FlowID span (the oldest live flow to the newest started
//     one, of the shard's sources) divided by the page length, plus 2,
//     and so does the high-water of pages it ever built;
//   - at every window, the slots held over all shards number no more
//     than the cluster's in-flight FlowID span plus 2 pages' worth per
//     shard, and so does the high-water of slots ever built: a page holds
//     only its shard's FlowIDs, so k shards together cost about what one
//     does;
//   - after the drain no page is held;
//   - an ACK that arrives after its flow's page was recycled finds no
//     flow: it changes nothing and builds no page.
func TestLiveTableFollowsFlowsInFlight(t *testing.T) {
	tp := topo.DefaultClos().Build()
	const window = 150 * units.Microsecond
	specs := workload.Poisson(workload.PoissonConfig{
		CDF: workload.Memcached, Load: 0.3,
		Hosts: tp.Hosts, HostRate: tp.Node(tp.Hosts[0]).Ports[0].Rate,
		Until: window,
	}, sim.NewRand(1))
	if len(specs) < 20*livePageLen {
		t.Fatalf("%d flows: too few to page", len(specs))
	}
	look := topo.Lookahead(tp)
	for _, k := range []int{1, 2, 4} {
		assign := topo.Partition(tp, k)
		engines := make([]*sim.Engine, k)
		for i := range engines {
			engines[i] = sim.NewEngine()
		}
		c := NewCluster(Config{Topo: tp, PFC: true}, engines, assign)
		for _, s := range specs {
			c.AddFlow(s.Src, s.Dst, s.Size, s.Start, s.Cat)
		}
		c.SealFlows()

		// newest[i] is the newest FlowID shard i has started by now.
		newest := make([]packet.FlowID, k)
		next := 0
		maxSpan := make([]packet.FlowID, k)
		var maxGlobalSpan packet.FlowID
		slack := packet.FlowID(2 * k * livePageLen)
		checkWindow := func(now units.Time) {
			for ; next < len(specs) && specs[next].Start <= now; next++ {
				si := 0
				if assign != nil {
					si = assign[specs[next].Src]
				}
				newest[si] = packet.FlowID(next + 1)
			}
			var globalOldest packet.FlowID
			slots := 0
			for i, n := range c.Nets {
				var span packet.FlowID
				if oldest := oldestLive(&n.live); oldest != 0 {
					span = newest[i] - oldest + 1
					if globalOldest == 0 || oldest < globalOldest {
						globalOldest = oldest
					}
				}
				maxSpan[i] = max(maxSpan[i], span)
				if held := heldPages(&n.live); held > int(span/livePageLen)+2 {
					t.Fatalf("shards=%d shard %d at %v: %d pages held for an in-flight span of %d FlowIDs", k, i, now, held, span)
				}
				slots += heldSlots(&n.live)
			}
			var span packet.FlowID
			if globalOldest != 0 {
				span = packet.FlowID(next) - globalOldest + 1
			}
			maxGlobalSpan = max(maxGlobalSpan, span)
			if slots > int(span+slack) {
				t.Fatalf("shards=%d at %v: %d slots held over all shards for an in-flight span of %d FlowIDs", k, now, slots, span)
			}
		}
		drained := func() bool {
			for _, n := range c.Nets {
				if heldPages(&n.live) != 0 {
					return false
				}
			}
			return next == len(specs)
		}
		var stale packet.FlowID // a finished flow whose page was recycled mid-run
		for now := units.Time(0); now < units.Time(2*units.Millisecond) && !drained(); {
			now = now.Add(look)
			for _, n := range c.Nets {
				n.Eng.Run(now)
			}
			c.ExchangeFrames()
			checkWindow(now)
			if stale == 0 && now > units.Time(window/2) {
				stale = recycledFlow(c)
				lateAck(t, c, stale)
			}
		}
		if stale == 0 {
			t.Fatalf("shards=%d: no page was recycled mid-run", k)
		}
		built := 0
		for i, n := range c.Nets {
			t.Logf("shards=%d shard %d: %d pages built (%d IDs each) for a peak in-flight span of %d FlowIDs, %d flows",
				k, i, builtPages(&n.live), livePageLen, maxSpan[i], len(specs))
			if builtPages(&n.live) > int(maxSpan[i]/livePageLen)+2 {
				t.Errorf("shards=%d shard %d: %d pages built, want at most %d (peak span %d)", k, i, builtPages(&n.live), maxSpan[i]/livePageLen+2, maxSpan[i])
			}
			if held := heldPages(&n.live); held != 0 {
				t.Errorf("shards=%d shard %d: %d pages held after the drain, want 0", k, i, held)
			}
			for id := packet.FlowID(1); int(id) <= len(specs); id++ {
				if n.live.get(id) != nil {
					t.Fatalf("shards=%d shard %d: flow %d still live after the drain", k, i, id)
				}
			}
			built += builtSlots(&n.live)
		}
		t.Logf("shards=%d: %d slots built over all shards for a peak in-flight span of %d FlowIDs", k, built, maxGlobalSpan)
		if built > int(maxGlobalSpan+slack) {
			t.Errorf("shards=%d: %d slots built over all shards, want at most %d (peak span %d)", k, built, maxGlobalSpan+slack, maxGlobalSpan)
		}
		lateAck(t, c, stale)
	}
}

// heldPages returns the number of pages a table holds now.
func heldPages(t *liveTable) int {
	held := 0
	for _, pg := range t.dir {
		if pg != nil {
			held++
		}
	}
	return held
}

// builtPages returns the number of pages a table ever built: held or
// free, a page is never dropped, so this is the high-water of pages held
// at once.
func builtPages(t *liveTable) int { return heldPages(t) + len(t.free) }

// heldSlots returns the number of slots a table's held pages hold.
func heldSlots(t *liveTable) int {
	n := 0
	for _, pg := range t.dir {
		if pg != nil {
			n += len(pg.slots)
		}
	}
	return n
}

// builtSlots returns the slot capacity of every page a table ever built.
func builtSlots(t *liveTable) int {
	n := 0
	for _, pg := range t.dir {
		if pg != nil {
			n += cap(pg.slots)
		}
	}
	for _, pg := range t.free {
		n += cap(pg.slots)
	}
	return n
}

// poolLen returns the depth of a network's flow pool.
func poolLen(n *Network) int {
	k := 0
	for f := n.flowPool; f != nil; f = f.snext {
		k++
	}
	return k
}

// oldestLive returns the smallest FlowID with a live slot, or 0.
func oldestLive(t *liveTable) packet.FlowID {
	for i, pg := range t.dir {
		for id := packet.FlowID(i * livePageLen); pg != nil && id < packet.FlowID((i+1)*livePageLen); id++ {
			if t.get(id) != nil {
				return id
			}
		}
	}
	return 0
}

// recycledFlow returns the first flow whose sender finished and whose
// page its shard has recycled, or 0.
func recycledFlow(c *Cluster) packet.FlowID {
	for i := 0; i < c.specs.Len(); i++ {
		id, s := packet.FlowID(i+1), c.specs.At(i)
		n := c.netOf(s.Src)
		if p := int(id / livePageLen); p < n.live.cursor && n.live.dir[p] == nil && c.netOf(s.Dst).isDone(id) {
			return id
		}
	}
	return 0
}

// lateAck delivers a final cumulative ACK of flow id to its sender, whose
// page is gone: the sender must find no flow, and the ACK must build no
// page and move no counter.
func lateAck(t *testing.T, c *Cluster, id packet.FlowID) {
	t.Helper()
	s := c.specs.At(int(id) - 1)
	n := c.netOf(s.Src)
	if n.flow(id) != nil {
		t.Fatalf("flow %d: finished and recycled, yet its sender finds it", id)
	}
	held, pooled, delivered := heldPages(&n.live), poolLen(n), n.DeliveredBytes()
	ack := n.NewCtrl(packet.Ack, id, s.Dst, s.Src)
	ack.AckSeq = s.size()
	n.HostsByID[s.Src].receive(ack)
	if heldPages(&n.live) != held || poolLen(n) != pooled || n.DeliveredBytes() != delivered {
		t.Fatalf("flow %d: a late ACK moved the sender's tables (pages %d -> %d, pool %d -> %d)", id, held, heldPages(&n.live), pooled, poolLen(n))
	}
}
