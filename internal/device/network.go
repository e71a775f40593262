//lint:hotpath flow wake/start scheduling and the packet pool run per packet

// Package device turns a topology into a running packet-level network:
// switches with shared buffers, PFC and ECN; hosts with paced,
// window-limited, go-back-N reliable flows driven by pluggable
// congestion control; and a FlowControl hook where Floodgate and the
// baseline schemes attach. Everything executes on one sim.Engine.
package device

import (
	"fmt"

	"floodgate/internal/cc"
	"floodgate/internal/forensics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// Dynamic-threshold PFC (§6: α = 2): an ingress port pauses its
// upstream when its occupancy exceeds pfcAlpha × free buffer, and
// resumes it below pfcAlpha × free × pfcResume (hysteresis).
const (
	pfcAlpha  = 2
	pfcResume = 0.8
)

// ECNConfig controls RED/ECN marking on switch egress queues.
type ECNConfig struct {
	Enable bool
	KMin   units.ByteSize
	KMax   units.ByteSize
	PMax   float64
}

// NDPConfig enables cut-payload trimming on switches and receiver-
// driven pulls on hosts.
type NDPConfig struct {
	Enable     bool
	TrimThresh units.ByteSize // egress backlog above which payloads are trimmed
}

// ShardSpec restricts a Network to one shard of a partitioned
// topology (see Cluster). Assign maps NodeID to shard index; the
// Network builds devices only for nodes assigned to Index. A nil
// ShardSpec means the Network owns the whole topology.
type ShardSpec struct {
	Index  int
	Assign []int
}

// Config assembles a simulation.
type Config struct {
	Topo   *topo.Topology
	Engine *sim.Engine
	Stats  *stats.Collector

	// Seed feeds every device-layer PRNG (per-switch ECN/loss draws,
	// fault-plane Gilbert–Elliott chains). Each consumer derives its
	// own stream from (Seed, node ID), so draws are independent of
	// event interleaving and of how the topology is sharded.
	Seed uint64

	// Shard, when non-nil, builds only one shard's devices (the
	// sharded executor wires the shards together; see cluster.go).
	Shard *ShardSpec

	BufferSize units.ByteSize // per-switch shared buffer (default 20MB)
	PFC        bool           // Priority Flow Control on switches (see pfcAlpha)
	ECN        ECNConfig
	INT        bool // append HPCC telemetry at egress
	NDP        NDPConfig

	CC  cc.Factory
	RTO units.Duration // go-back-N retransmission timeout (default 1ms)

	// CNPInterval rate-limits DCQCN notification packets per flow.
	CNPInterval units.Duration

	// QueuesPerPort is the number of egress data queues (1 unless BFC).
	QueuesPerPort int

	// FC builds the per-switch flow-control module (nil = none).
	FC FCFactory

	// PerDstPause enables host NICs to honour Floodgate dstPause frames.
	PerDstPause bool

	// LossRate injects uniform drops of data and credit frames on
	// switch-to-switch links.
	LossRate float64

	// CreditLossRate additionally drops only Floodgate credit/switchSYN
	// frames — the paper's Fig 12 stress, which isolates the switch
	// window-recovery path (PSN + switchSYN) from host retransmission.
	CreditLossRate float64

	// Trace, when non-nil, records packet lifecycle events (see the
	// trace package). Disabled tracing costs one nil check per event.
	Trace *trace.Buffer

	// Forensics, when non-nil, receives causal wait-state hooks (see
	// the forensics package). Each shard must get its own recorder
	// (Cluster forks siblings); disabled forensics costs one nil check
	// per hook site and allocates nothing.
	Forensics *forensics.Recorder

	// Metrics carries the instrument handles the devices update. The
	// zero value is inert (nil-safe handles), so unmetered runs pay
	// only embedded nil checks.
	Metrics NetMetrics
}

// Defaults fills unset fields.
func (c *Config) defaults() {
	if c.BufferSize == 0 {
		c.BufferSize = 20 * units.MB
	}
	if c.ECN.KMin == 0 {
		c.ECN.KMin = 40 * units.KB
	}
	if c.ECN.KMax == 0 {
		c.ECN.KMax = 160 * units.KB
	}
	if c.ECN.PMax == 0 {
		c.ECN.PMax = 0.2
	}
	if c.RTO == 0 {
		c.RTO = units.Millisecond
	}
	if c.CNPInterval == 0 {
		c.CNPInterval = 50 * units.Microsecond
	}
	if c.QueuesPerPort == 0 {
		c.QueuesPerPort = 1
	}
	if c.NDP.Enable && c.NDP.TrimThresh == 0 {
		c.NDP.TrimThresh = 8 * packet.MTU
	}
	if c.CC == nil {
		c.CC = cc.NewFixedWindow()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Stats == nil {
		c.Stats = stats.NewCollector(10 * units.Microsecond)
	}
}

// Network is the wired simulation: one device per topology node.
type Network struct {
	Cfg  Config
	Topo *topo.Topology
	Eng  *sim.Engine
	observers
	nextID  uint64
	baseRTT units.Duration // per-flow Env.BaseRTT (deriveBaseRTT)

	// Devices, indexed by NodeID, minted on first touch (DESIGN.md §3): a
	// nil entry is a node of the other kind, one another shard owns, or one
	// nothing has touched yet — ask Owns or Topo.Node(id).Kind, never nil.
	Switches  []*Switch
	HostsByID []*Host
	hostSlab  []Host // unminted remainder of the current 64-host chunk

	// Flow lifecycle (DESIGN.md §3). specs is the registration log:
	// FlowID id is entry id-1. live holds the objects of the flows this
	// shard's hosts send, from mint to release (a held flow's: from
	// registration, for good); peers are every shard's tables, by shard,
	// where a receiver finds a flow another shard sends (nil on a network
	// that owns the whole topology). done is this shard's receiver-side
	// completion bitset, consulted before any table so nothing dereferences
	// a recycled object or page. flowPool is the stack of released
	// objects, with their controllers, linked through snext (a pooled
	// flow is on no sender list); minted counts objects ever built. A
	// Cluster's shards share specs (read-only once sealed).
	specs    *stats.ChunkLog[flowSpec]
	fcts     [stats.NumCategories]int // registrations this shard receives, by category
	live     liveTable
	peers    []*liveTable
	done     []uint64
	flowPool *Flow
	minted   int
	pktPool  []*packet.Packet

	// faults is the runtime fault-plane state (nil without a plan); see
	// faults.go. delivered is the global payload-progress counter the
	// stall watchdog monitors.
	faults    *faultState
	delivered units.ByteSize

	// OnFlowDone, if set, fires when a flow's last byte is delivered.
	OnFlowDone func(f *Flow, finish units.Time)
}

// New wires a stand-alone network and mints every device it owns:
// stand-alone networks are the small hand-driven ones (tests, examples,
// the benchmark's rungs), which reach into Switches at once, and the
// eager reference a Cluster's mint-on-touch is tested against.
func New(cfg Config) *Network {
	n := newNetwork(cfg)
	n.MintAll()
	return n
}

// newNetwork builds what every device needs and no device: the tables,
// the wire priorities and the base RTT.
func newNetwork(cfg Config) *Network {
	cfg.defaults()
	if cfg.Topo == nil || cfg.Engine == nil {
		panic("device: Config.Topo and Config.Engine are required")
	}
	n := &Network{
		Cfg:       cfg,
		Topo:      cfg.Topo,
		Eng:       cfg.Engine,
		observers: cfg.observers(),
		Switches:  make([]*Switch, len(cfg.Topo.Nodes)),
		HostsByID: make([]*Host, len(cfg.Topo.Nodes)),
		specs:     new(stats.ChunkLog[flowSpec]),
	}
	if sp := cfg.Shard; sp != nil {
		// Distinct pktID streams per shard (ids are debug/trace labels;
		// uniqueness, not density, is what matters).
		n.nextID = uint64(sp.Index) << 56
		n.live.owned = n.liveMask
	}
	if uint64(sim.PriWireBase)+uint64(cfg.Topo.TotalPorts()) >= uint64(sim.PriTimer) {
		panic("device: topology has too many directed ports for wire priorities")
	}
	n.baseRTT = n.deriveBaseRTT()
	n.built()
	return n
}

// mint builds owned node id's device, flow-control module included,
// unless it exists. A device's state depends only on its node, the
// topology and (Seed, node ID), so mint order — which differs between
// New, a Cluster and shard counts — is unobservable.
func (n *Network) mint(id packet.NodeID) {
	node := n.Topo.Node(id)
	if node.Kind == topo.HostNode {
		if n.HostsByID[id] == nil {
			n.HostsByID[id] = newHost(n, node)
		}
		return
	}
	if n.Switches[id] == nil {
		sw := newSwitch(n, node)
		n.Switches[id] = sw
		if n.Cfg.FC != nil {
			sw.fc = n.Cfg.FC(sw)
		}
	}
}

// MintAll mints every device this network owns, in NodeID order.
func (n *Network) MintAll() {
	for _, node := range n.Topo.Nodes {
		if n.Owns(node.ID) {
			n.mint(node.ID)
		}
	}
}

// deriveBaseRTT estimates the unloaded cross-fabric RTT: propagation
// both ways over the longest host-to-host path plus per-hop MTU
// serialization. For the paper's 2-tier fabric this lands at ~5.1 µs.
func (n *Network) deriveBaseRTT() units.Duration {
	t := n.Topo
	if len(t.Hosts) < 2 {
		return 10 * units.Microsecond
	}
	src := t.Hosts[0]
	dst := t.Hosts[len(t.Hosts)-1]
	var oneWay units.Duration
	cur := src
	for cur != dst {
		p := t.Node(cur).Ports[t.ECMP(cur, src, dst)]
		oneWay += p.Prop + units.TxTime(packet.MTU, p.Rate)
		cur = p.Peer
	}
	// Reverse path carries the (MTU-serialised) ACK per the convention
	// of symmetric base RTT; add control serialization which is tiny.
	return 2 * oneWay
}

// BaseRTT returns the flow-level base RTT in use.
func (n *Network) BaseRTT() units.Duration { return n.baseRTT }

// BaseBDP returns host line rate × base RTT for the topology's first
// host. Derived from the topology (not the shard's own host list) so
// every shard computes the same value.
func (n *Network) BaseBDP() units.ByteSize {
	p := &n.Topo.Node(n.Topo.Hosts[0]).Ports[0]
	return units.BDP(p.Rate, n.baseRTT)
}

// Owns reports whether this network builds the device for a node.
func (n *Network) Owns(id packet.NodeID) bool {
	s := n.Cfg.Shard
	return s == nil || s.Assign[id] == s.Index
}

// wireOf returns the in-flight chain of port `port` of switch owner,
// which this shard owns, minting it (hosts never own a cut link).
func (n *Network) wireOf(owner packet.NodeID, port int) *wire {
	n.mint(owner)
	return &n.Switches[owner].port(port).wire
}

// pktID mints a unique packet id.
func (n *Network) pktID() uint64 {
	n.nextID++
	return n.nextID
}

// Device dispatch: deliver a packet to the node that owns the port.
func (n *Network) deliver(to packet.NodeID, p *packet.Packet, inPort int) {
	p.AssertLive("Network.deliver")
	if sw := n.Switches[to]; sw != nil {
		sw.receive(p, inPort)
		return
	}
	h := n.HostsByID[to]
	if h == nil { // the first frame to reach this node
		n.mint(to)
		n.deliver(to, p, inPort)
		return
	}
	h.receive(p)
}

// flowSpec is one registration-log record: what a flow is before (and
// after) it has an object. It is 24 bytes, the log's cost per flow ever
// registered, so the size is stored in 48 bits (read it with size).
type flowSpec struct {
	Start    units.Time
	Src, Dst packet.NodeID
	sizeLo   uint32
	sizeHi   uint16
	Cat      packet.Category
	manual   bool // application-launched (Network.Launch), not injected
}

func (s *flowSpec) size() units.ByteSize {
	return units.ByteSize(s.sizeHi)<<32 | units.ByteSize(s.sizeLo)
}

// logFlow validates a registration against the topology and appends it
// to the log. FlowIDs are dense from 1, in registration order.
func logFlow(t *topo.Topology, log *stats.ChunkLog[flowSpec], s flowSpec, size units.ByteSize) packet.FlowID {
	if s.Src == s.Dst {
		panic("device: flow with src == dst")
	}
	if size <= 0 || size >= 1<<48 || s.Cat >= packet.NumCategories {
		panic(fmt.Sprintf("device: flow size %d outside (0, 2^48) or category %d out of range", size, s.Cat))
	}
	for _, id := range [2]packet.NodeID{s.Src, s.Dst} {
		if id < 0 || int(id) >= len(t.Nodes) || t.Nodes[id].Kind != topo.HostNode {
			panic(fmt.Sprintf("device: flow endpoints must be hosts (%d -> %d)", s.Src, s.Dst))
		}
	}
	s.sizeLo, s.sizeHi = uint32(size), uint16(size>>32)
	log.Append(s)
	return packet.FlowID(log.Len())
}

// spec returns a registered flow's log record.
func (n *Network) spec(id packet.FlowID) *flowSpec { return n.specs.At(int(id) - 1) }

// liveMask returns the ownership mask of live-table page i: bit j is set
// when one of this shard's hosts sends FlowID i*livePageLen+j. The log
// is sealed before any page is minted, so the mask never changes.
func (n *Network) liveMask(i int) uint64 {
	var m uint64
	for j := 0; j < livePageLen; j++ {
		id := i*livePageLen + j
		if id >= 1 && id <= n.specs.Len() && n.Owns(n.spec(packet.FlowID(id)).Src) {
			m |= 1 << j
		}
	}
	return m
}

// flow returns the live object of a flow one of this shard's hosts
// sends: nil before its start and after its release.
func (n *Network) flow(id packet.FlowID) *Flow {
	f := n.live.get(id)
	f.assertIs(id)
	return f
}

// rcvFlow returns the live object of a flow src sends to one of this
// shard's hosts, from the table of the shard that owns src. Call it only
// for a flow not yet done at its receiver: until then its sender cannot
// have released it, so its page is held (DESIGN.md §10).
func (n *Network) rcvFlow(src packet.NodeID, id packet.FlowID) *Flow {
	t := &n.live
	if s := n.Cfg.Shard; s != nil {
		t = n.peers[s.Assign[src]]
	}
	f := t.get(id)
	f.assertIs(id)
	return f
}

// isDone reports whether this shard's receiver finished the flow.
func (n *Network) isDone(id packet.FlowID) bool {
	w := id >> 6
	return w < packet.FlowID(len(n.done)) && n.done[w]&(1<<(id&63)) != 0
}

func (n *Network) markDone(id packet.FlowID) {
	for int(id>>6) >= len(n.done) {
		n.done = append(n.done, 0)
	}
	n.done[id>>6] |= 1 << (id & 63)
}

// mintFlow builds the object of registered flow id on its source's
// shard: a pooled one with its controller reset, else a new one. held
// marks it caller-owned (handed out by AddFlow/AddAppFlow), so never
// recycled; the simulator owns the rest from mint to Host.release.
func (n *Network) mintFlow(id packet.FlowID, held bool) *Flow {
	s := n.spec(id)
	rate, rtt := n.HostsByID[s.Src].port.Rate, n.baseRTT
	env := cc.Env{LinkRate: rate, BaseRTT: rtt, BDP: units.BDP(rate, rtt)}
	var f *Flow
	if f = n.flowPool; f != nil {
		n.flowPool = f.snext
		f.ctrl.Reset(env)
		*f = Flow{ctrl: f.ctrl, ndp: f.ndp, dbg: f.dbg.acquired()}
		if f.ndp != nil {
			*f.ndp = ndpState{}
		}
	} else {
		f = &Flow{ctrl: n.Cfg.CC(env)}
		if n.Cfg.NDP.Enable {
			f.ndp = new(ndpState)
		}
		n.minted++
	}
	f.ID, f.Src, f.Dst, f.Size, f.Cat, f.Start = id, s.Src, s.Dst, s.size(), s.Cat, s.Start
	f.net, f.held, f.manual = n, held, s.manual
	return f
}

// AddFlow registers a flow from src to dst starting at the given time
// on a stand-alone network. The returned flow is caller-owned (held):
// minted here and never recycled, so it may be inspected after the run.
func (n *Network) AddFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category) *Flow {
	id := logFlow(n.Topo, n.specs, flowSpec{Start: start, Src: src, Dst: dst, Cat: cat}, size)
	f := n.mintFlow(id, true)
	n.live.put(f)
	if start == n.Eng.Now() {
		n.HostsByID[src].startFlow(f)
	} else {
		n.Eng.AtArg(start, flowStartFn, f)
	}
	return f
}

// Launch starts a deferred application flow (Cluster.AddAppFlow) on
// its source host at the current simulation time. The caller must be
// the shard that owns f.Src — the application plane is per-shard, so
// this holds by construction. A flow launches at most once.
func (n *Network) Launch(f *Flow) {
	if !f.manual {
		panic("device: Launch on a non-deferred flow")
	}
	if f.launched {
		panic(fmt.Sprintf("device: flow %d launched twice", f.ID))
	}
	if !n.Owns(f.Src) {
		panic(fmt.Sprintf("device: Launch of flow %d from a shard that does not own host %d", f.ID, f.Src))
	}
	f.launched = true
	f.Start = n.Eng.Now()
	n.HostsByID[f.Src].startFlow(f)
}

// flowStartFn is the capture-free deferred-start callback of a
// stand-alone network's held flows (a Cluster injects; see cluster.go).
func flowStartFn(a any) {
	f := a.(*Flow)
	f.net.HostsByID[f.Src].startFlow(f)
}

// Packet pooling: control frames and data segments are recycled at
// their terminal consumption points (receiver host, pause handler,
// drop), which removes the dominant GC pressure of high-rate runs.

// newData builds a pooled data segment.
func (n *Network) newData(flow packet.FlowID, src, dst packet.NodeID, seq, payload units.ByteSize, last bool) *packet.Packet {
	p := n.getPkt()
	p.ID = n.pktID()
	p.Kind = packet.Data
	p.Flow = flow
	p.Src = src
	p.Dst = dst
	p.Size = payload + packet.HeaderSize
	p.Seq = seq
	p.Payload = payload
	p.Last = last
	return p
}

// NewCtrl builds a pooled minimum-size control frame (exported for
// flow-control modules).
func (n *Network) NewCtrl(kind packet.Kind, flow packet.FlowID, src, dst packet.NodeID) *packet.Packet {
	p := n.getPkt()
	p.ID = n.pktID()
	p.Kind = kind
	p.Flow = flow
	p.Src = src
	p.Dst = dst
	p.Size = packet.CtrlSize
	return p
}

// pktChunk is the pool refill batch: one backing array serves this
// many pool misses.
const pktChunk = 64

func (n *Network) getPkt() *packet.Packet {
	if m := len(n.pktPool); m > 0 {
		p := n.pktPool[m-1]
		n.pktPool[m-1] = nil
		n.pktPool = n.pktPool[:m-1]
		p.ResetKeepBuffers()
		p.PoolAcquired()
		return p
	}
	// Refill in chunks: one backing allocation mints pktChunk packets,
	// cutting both alloc count and GC scan pressure at ramp-up.
	chunk := make([]packet.Packet, pktChunk)
	for i := pktChunk - 1; i > 0; i-- {
		n.pktPool = append(n.pktPool, &chunk[i])
	}
	return &chunk[0]
}

// Recycle returns a fully consumed packet to the pool. Callers must
// hold the only reference (exported for flow-control modules).
func (n *Network) Recycle(p *packet.Packet) {
	if p == nil {
		return
	}
	p.PoolReleased()
	n.pktPool = append(n.pktPool, p)
}

// Run advances the simulation to the given time.
func (n *Network) Run(until units.Time) { n.Eng.Run(until) }

// Finalize closes statistics intervals that are still open (PFC pause
// periods in progress when the run ends), in NodeID order so that mint
// order never reaches the collector. Call once after the last Run.
func (n *Network) Finalize() {
	for _, sw := range n.Switches {
		if sw != nil {
			for _, o := range sw.ports {
				if o != nil {
					o.pfc.close(n, sw.node.Layer)
				}
			}
		}
	}
	for _, h := range n.HostsByID {
		if h != nil {
			h.pfc.close(n, topo.LayerHost)
		}
	}
}

// Flows returns a stand-alone network's flows, all held, in FlowID
// order (test helper).
func (n *Network) Flows() []*Flow {
	fs := make([]*Flow, n.specs.Len())
	for i := range fs {
		fs[i] = n.live.get(packet.FlowID(i + 1))
	}
	return fs
}

// DeliveredBytes is the total payload delivered to receivers so far —
// the monotone progress signal the stall watchdog monitors.
func (n *Network) DeliveredBytes() units.ByteSize { return n.delivered }
