// Cluster wires one topology into k shard Networks for the sharded
// conservative-window executor (see exp/shardexec.go). Each shard owns
// the devices its partition assigns to it and runs on its own engine,
// collector and packet pool; the only shard-crossing state is the set
// of cross-shard wires, whose frames are staged into per-link mailboxes
// and handed to the peer shard's mirror chain at barrier windows.

package device

import (
	"fmt"

	"floodgate/internal/fault"
	"floodgate/internal/forensics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// xlink is one cross-shard directed link: the sending shard's wire
// stages frames into pend (instead of arming a local timer), and the
// receiving shard's mirror chain delivers them after the exchange. The
// mirror models the same port, so it delivers under the link's global
// wire priority: delivery order is exactly what a single-shard run
// would execute.
type xlink struct {
	pend   []wireEnt
	mirror wire
}

// Cluster is a partitioned network: one shard Network per engine.
type Cluster struct {
	Topo   *topo.Topology
	Assign []int      // NodeID -> shard index; nil at one shard (topo.Partition)
	Nets   []*Network // one per shard

	specs     *stats.ChunkLog[flowSpec] // the shards' shared registration log
	held      []*Flow                   // AddAppFlow's caller-owned flows, for SealFlows
	lastStart units.Time
	sealed    bool
	xlinks    []*xlink // by sending shard, then directed-port order (determinism)
}

// NewCluster builds one shard network per engine over one topology. base
// supplies everything but Engine and Shard; its observers are shard 0's and
// fork for the rest (Config.forShard). assign must come from a partition
// that never cuts a host-ToR link (topo.Partition guarantees this); it
// may be nil at one shard.
func NewCluster(base Config, engines []*sim.Engine, assign []int) *Cluster {
	k := len(engines)
	if k < 1 {
		panic("device: NewCluster needs at least one engine")
	}
	if (assign != nil || k > 1) && len(assign) != len(base.Topo.Nodes) {
		panic("device: shard assignment length must match node count")
	}
	c := &Cluster{
		Topo:   base.Topo,
		Assign: assign,
		Nets:   make([]*Network, k),
		specs:  new(stats.ChunkLog[flowSpec]),
	}
	base.defaults()
	peers := make([]*liveTable, k)
	for i, eng := range engines {
		c.Nets[i] = newNetwork(base.forShard(i, eng, assign))
		c.Nets[i].specs = c.specs
		c.Nets[i].peers = peers
		peers[i] = &c.Nets[i].live
	}
	// Wire up the shard-crossing links, one sending shard at a time: wireOf
	// mints the switch that owns a cut link, devices minted back to back
	// lie back to back in memory, and two shards' switches interleaved
	// there cost a two-shard run 6-8 % in contended cache lines (DESIGN §3).
	for _, n := range c.Nets {
		for id := range c.Topo.Nodes {
			node := &c.Topo.Nodes[id]
			if !n.Owns(node.ID) {
				continue
			}
			for pi := range node.Ports {
				pt := &node.Ports[pi]
				if n.Owns(pt.Peer) {
					continue
				}
				d := assign[pt.Peer]
				if node.Kind == topo.HostNode || c.Topo.Node(pt.Peer).Kind == topo.HostNode {
					panic(fmt.Sprintf("device: host link %d-%d crosses shard boundary", node.ID, pt.Peer))
				}
				xl := &xlink{}
				w := n.wireOf(node.ID, pi)
				w.staged = xl
				xl.mirror = newWire(c.Nets[d], pt)
				c.xlinks = append(c.xlinks, xl)
			}
		}
	}
	return c
}

// netOf returns the shard network that owns node id.
func (c *Cluster) netOf(id packet.NodeID) *Network {
	if c.K() == 1 {
		return c.Nets[0] // Assign may be nil
	}
	return c.Nets[c.Assign[id]]
}

// K returns the shard count.
func (c *Cluster) K() int { return len(c.Nets) }

// AddFlow registers a flow from src to dst starting at the given time.
// Flows must be added in a fixed global order before SealFlows: the
// FlowID sequence and each shard's injection order are part of the
// deterministic contract. Registration only logs the spec; the flow's
// object is minted at its start and recycled when its sender finishes.
func (c *Cluster) AddFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category) {
	if c.specs.Len() > 0 && start < c.lastStart {
		panic("device: AddFlow starts must be non-decreasing (sort specs by Start)")
	}
	c.lastStart = start
	c.register(flowSpec{Start: start, Src: src, Dst: dst, Cat: cat}, size)
}

// AddAppFlow registers a deferred application-plane flow: the per-shard
// injection chains skip it and it starts only when the shard that owns
// its source calls Network.Launch at runtime. Registration order still
// assigns FlowIDs, so the attempt-flow table is part of the
// deterministic contract; attempt (>= 1) stamps the flow for forensics
// and trace attribution. Start carries the earliest possible launch
// time (informative until Launch overwrites it with the real one). The
// returned flow is caller-owned (held), like Network.AddFlow's.
func (c *Cluster) AddAppFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category, attempt int) *Flow {
	if attempt < 1 {
		panic("device: AddAppFlow attempt must be >= 1")
	}
	id := c.register(flowSpec{Start: start, Src: src, Dst: dst, Cat: cat, manual: true}, size)
	f := c.netOf(src).mintFlow(id, true)
	f.Attempt = int32(attempt)
	c.held = append(c.held, f)
	return f
}

func (c *Cluster) register(s flowSpec, size units.ByteSize) packet.FlowID {
	if c.sealed {
		panic("device: AddFlow after SealFlows")
	}
	id := logFlow(c.Topo, c.specs, s, size)
	c.netOf(s.Dst).fcts[s.Cat]++ // the receiver's shard files its FCT
	// The log's first mention of a host mints it and the ToR on its one port
	// (same shard: host links are never cut), where its first frame lands;
	// minting at first frame would move the cost into the timed run.
	for _, h := range [2]packet.NodeID{s.Src, s.Dst} {
		if n := c.netOf(h); n.HostsByID[h] == nil {
			n.mint(h)
			n.mint(c.Topo.Node(h).Ports[0].Peer)
		}
	}
	return id
}

// flowInjector walks one shard's share of the registration log (sources
// owned by the shard, in global registration order), minting and
// starting each flow at its Start time. One chained PriStart event per
// shard keeps the event queue shallow no matter how many flows are
// registered — the same progressive-injection idea the old exp.Run loop
// used, made partition-invariant: starts run before any same-timestamp
// wire delivery or timer, in global spec order within each shard.
type flowInjector struct {
	net  *Network
	next packet.FlowID // cursor: the first log record not yet considered
}

// peek advances the cursor to the shard's next injectable record and
// returns it, or nil at the end of the log.
func (in *flowInjector) peek() *flowSpec {
	n := in.net
	for ; int(in.next) <= n.specs.Len(); in.next++ {
		if s := n.spec(in.next); !s.manual && n.Owns(s.Src) {
			return s
		}
	}
	return nil
}

func flowInjectFn(a any) {
	in := a.(*flowInjector)
	n := in.net
	now := n.Eng.Now()
	s := in.peek()
	for ; s != nil && s.Start <= now; s = in.peek() {
		f := n.mintFlow(in.next, false)
		n.live.advance(int(in.next / livePageLen))
		n.live.put(f)
		in.next++
		n.HostsByID[s.Src].startFlow(f)
	}
	if s != nil {
		n.Eng.AtArgPri(s.Start, flowInjectFn, in, sim.PriStart)
	} else {
		n.live.advance(len(n.live.dir)) // the log is done: every page is passed
	}
}

// SealFlows closes registration, sizes each shard's live-table directory
// (one word per page of FlowIDs; the pages come and go with the flows in
// flight, see DESIGN.md §10 for why no lock guards them), places the held
// flows and arms the per-shard injection chains. Call after the last
// AddFlow and before running.
func (c *Cluster) SealFlows() {
	c.sealed = true
	nflows := c.specs.Len() + 1
	for _, n := range c.Nets {
		n.live.dir = make([]*livePage, (nflows+livePageLen-1)/livePageLen)
	}
	for _, f := range c.held {
		c.netOf(f.Src).live.put(f)
	}
	for _, n := range c.Nets {
		n.sealed(nflows)
		in := &flowInjector{net: n, next: 1}
		if s := in.peek(); s != nil {
			n.Eng.AtArgPri(s.Start, flowInjectFn, in, sim.PriStart)
		}
	}
}

// FlowMetas returns the forensics metadata of every flow that started,
// in FlowID order: the registration log joined with the receivers' done
// bits and the forensics recorders' FCTs, since a finished flow's object
// is recycled. The recorders are the only per-flow FCT store, so it
// panics on a cluster built without forensics (Config.Forensics) rather
// than read every FCT as zero. Held (application) flows add what only
// the object knows: whether and when they launched, and their attempt
// number.
func (c *Cluster) FlowMetas() []forensics.FlowMeta {
	recs := c.Recorders()
	if len(recs) == 0 {
		panic("device: FlowMetas needs the forensics recorders, the only per-flow FCT store")
	}
	held := c.held // the manual records' objects, in FlowID order
	metas := make([]forensics.FlowMeta, 0, c.specs.Len())
	for i := 0; i < c.specs.Len(); i++ {
		id, s := packet.FlowID(i+1), c.specs.At(i)
		m := forensics.FlowMeta{
			ID: id, Src: s.Src, Dst: s.Dst, Size: s.size(), Start: s.Start,
			Done: c.netOf(s.Dst).isDone(id),
		}
		for _, r := range recs {
			m.FCT += r.FCT(id) // only the receiver's shard wrote it
		}
		if s.manual {
			f := held[0]
			held = held[1:]
			if !f.launched {
				continue // unused app attempt: registered but never started
			}
			m.Start, m.Attempt = f.Start, int(f.Attempt)
		}
		metas = append(metas, m)
	}
	return metas
}

// FlowObjects returns how many Flow objects the shards ever built: each
// builds one only when its pool is empty, so this sums their peak counts
// of simultaneously live flows.
func (c *Cluster) FlowObjects() int {
	total := 0
	for _, n := range c.Nets {
		total += n.minted
	}
	return total
}

// InstallFaults arms the plan on every shard; each schedules only the
// sub-events touching its own devices (see faults.go).
func (c *Cluster) InstallFaults(p *fault.Plan, seed uint64) {
	for _, n := range c.Nets {
		n.InstallFaults(p, seed)
	}
}

// ExchangeFrames drains every cross-shard mailbox into its mirror
// chain, in xlinks order. Call only at a barrier, with
// every engine stopped at the same time u: staged arrivals are then
// strictly in each receiver's future (the conservative-lookahead
// guarantee), so the mirror pushes never schedule into the past.
// Returns the number of frames moved.
func (c *Cluster) ExchangeFrames() int {
	moved := 0
	for _, xl := range c.xlinks {
		if len(xl.pend) == 0 {
			continue
		}
		for i := range xl.pend {
			ent := xl.pend[i]
			xl.pend[i] = wireEnt{}
			xl.mirror.push(ent.at, ent.p)
		}
		moved += len(xl.pend)
		xl.pend = xl.pend[:0]
	}
	return moved
}

// NextAt returns the earliest queued event time across all shards.
// Valid only at a barrier after ExchangeFrames (so no frame is hiding
// in a mailbox); the result is then partition-invariant, because the
// union of the shards' queues is the same global event multiset a
// single-shard run holds.
func (c *Cluster) NextAt() (units.Time, bool) {
	var min units.Time
	ok := false
	for _, n := range c.Nets {
		if at, ok2 := n.Eng.NextAt(); ok2 && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// DeliveredBytes sums delivered payload over the shards.
func (c *Cluster) DeliveredBytes() units.ByteSize {
	var b units.ByteSize
	for _, n := range c.Nets {
		b += n.DeliveredBytes()
	}
	return b
}

// Processed sums executed events over the shard engines.
func (c *Cluster) Processed() uint64 {
	var p uint64
	for _, n := range c.Nets {
		p += n.Eng.Processed
	}
	return p
}

// FaultStats aggregates the shards' fault counters (field-wise sums;
// each counter is counted on exactly one shard).
func (c *Cluster) FaultStats() FaultStats {
	var fs FaultStats
	for _, n := range c.Nets {
		s := n.FaultStats()
		fs.LinkEvents += s.LinkEvents
		fs.LinksDown += s.LinksDown
		fs.Restarts += s.Restarts
		fs.Resyncs += s.Resyncs
	}
	return fs
}

// StallSnapshot aggregates the shards' stall-relevant state.
func (c *Cluster) StallSnapshot() StallSnapshot {
	var ss StallSnapshot
	for _, n := range c.Nets {
		s := n.StallSnapshot()
		ss.DeliveredBytes += s.DeliveredBytes
		ss.ExhaustedWindows += s.ExhaustedWindows
		ss.WindowDeficit += s.WindowDeficit
		ss.ParkedBytes += s.ParkedBytes
		ss.PausedSwitchPorts += s.PausedSwitchPorts
		ss.PausedHosts += s.PausedHosts
		ss.LinksDown += s.LinksDown
	}
	return ss
}

// Finalize closes still-open statistics intervals on every shard.
func (c *Cluster) Finalize() {
	for _, n := range c.Nets {
		n.Finalize()
	}
}
