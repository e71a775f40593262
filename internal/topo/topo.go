// Package topo models datacenter topologies: nodes (hosts and
// switches arranged in layers), full-duplex links broken into directed
// ports, shortest-path multipath routing, and the port-class taxonomy
// the paper reports buffer occupancy against (ToR-Up, Core, ToR-Down,
// Edge-Up, Agg-Up, ...).
package topo

import (
	"fmt"
	"unsafe"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// NodeKind distinguishes end hosts from switches.
type NodeKind uint8

// Node kinds.
const (
	HostNode NodeKind = iota
	SwitchNode
)

// Layer places a node in the fabric hierarchy.
type Layer uint8

// Fabric layers, bottom-up.
const (
	LayerHost Layer = iota
	LayerToR        // edge/ToR switches (first and last switch hop)
	LayerAgg        // aggregation/leaf switches (3-tier only)
	LayerCore       // core/spine switches
)

func (l Layer) String() string {
	switch l {
	case LayerHost:
		return "host"
	case LayerToR:
		return "tor"
	case LayerAgg:
		return "agg"
	case LayerCore:
		return "core"
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// PortClass is the paper's reporting bucket for an egress port.
type PortClass uint8

// Port classes. Host ports are host NIC egress queues. For 2-tier
// topologies only ToRUp/ToRDown/CoreDown/CoreUp exist; 3-tier adds the
// Edge/Agg classes (paper Fig. 13 naming).
const (
	ClassHost    PortClass = iota
	ClassToRUp             // ToR port facing the fabric (packets' first switch hop upward)
	ClassToRDown           // ToR port facing hosts (packets' last hop)
	ClassCore              // any core/spine port
	ClassAggUp             // aggregation port facing cores
	ClassAggDown           // aggregation port facing ToRs
	NumPortClasses
)

var classNames = [NumPortClasses]string{"Host", "ToR-Up", "ToR-Down", "Core", "Agg-Up", "Agg-Down"}

func (c PortClass) String() string {
	if c < NumPortClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Port is one direction of a link: the transmit side owned by Owner.
// Counts and indexes are 32-bit, as in Node: the two records are the
// bulk of a 100k-host fabric's memory.
type Port struct {
	Owner    packet.NodeID
	Index    int32 // position within Owner's port list
	Peer     packet.NodeID
	PeerPort int32 // the reverse-direction port index at Peer
	Rate     units.BitRate
	Prop     units.Duration
	Class    PortClass
}

// BDP returns the one-hop bandwidth-delay product of this port: the
// bytes in flight over a full round trip to the peer (2×propagation)
// plus one MTU of serialization slack. Floodgate initialises per-dst
// windows from this.
func (p *Port) BDP() units.ByteSize {
	return units.BytesOver(p.Rate, 2*p.Prop) + packet.MTU
}

// Node is a device: a host (one port) or a switch (many ports).
type Node struct {
	ID    packet.NodeID
	Kind  NodeKind
	Layer Layer
	Pod   int32  // pod/zone index (3-tier); -1 when not applicable
	Rack  int32  // rack index for ToRs and hosts; -1 otherwise
	Ports []Port // a window of the topology's port arena
}

// Name labels the node in error and test-failure messages, its only
// readers, so it is rendered on demand from the layer and (unique) ID.
func (n *Node) Name() string {
	return fmt.Sprintf("%s%d(pod %d, rack %d)", n.Layer, n.ID, n.Pod, n.Rack)
}

// Topology is an immutable network graph with multipath routes from
// every node to every host, answered by structural index arithmetic
// (O(total ports) memory; see router.go). Immutability is load-bearing:
// after Build() nothing writes to nodes, ports or router state (the
// device layer only takes pointers into them), so one Topology may be
// shared by concurrent simulation runs (exp.RunMany) without
// synchronisation. Nodes and the port arena are each allocated once at
// exact size; a node's Ports are its window of the arena, in ID order.
type Topology struct {
	Nodes []Node
	Hosts []packet.NodeID // all host IDs in ID order

	ports  []Port
	router router
}

// Node returns the node with the given ID.
func (t *Topology) Node(id packet.NodeID) *Node { return &t.Nodes[id] }

// HostIndex returns a host's dense index (its router record's hostLo), or -1.
func (t *Topology) HostIndex(id packet.NodeID) int {
	if e := &t.router.sw[id]; e.stride == 0 {
		return int(e.hostLo)
	}
	return -1
}

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

// NextPorts returns every shortest-path egress port index at node n
// toward destination host dst, in ascending port order. Empty only
// if n == dst. Panics with a clear message when dst is not a host —
// a switch or out-of-range ID here is always a caller bug, and an
// unchecked lookup would surface it as a cryptic
// "index out of range [-1]". The returned slice is shared and
// immutable; callers must not modify it.
func (t *Topology) NextPorts(n, dst packet.NodeID) []int {
	return t.router.nextPorts(n, t.mustHostIndex(dst))
}

// mustHostIndex resolves dst to its dense host index, panicking with
// an actionable message for switches and out-of-range IDs.
func (t *Topology) mustHostIndex(dst packet.NodeID) int {
	if uint(dst) >= uint(len(t.router.sw)) || t.router.sw[dst].stride != 0 {
		panic(fmt.Sprintf("topo: dst %d is not a host", dst))
	}
	return int(t.router.sw[dst].hostLo)
}

// RouteBytes is the resident memory of the router — the route_bytes
// scale gauge.
func (t *Topology) RouteBytes() int64 { return t.router.bytes() }

// TotalPorts counts directed ports across all nodes (two per link).
func (t *Topology) TotalPorts() int { return len(t.ports) }

// Port returns the port with directed-port index id (PortID's inverse).
func (t *Topology) Port(id int) *Port { return &t.ports[id] }

// PortID returns p's offset in the port arena: its global directed-port
// index in [0, TotalPorts()), numbered in node ID order, then port
// order. p must point into this topology.
func (t *Topology) PortID(p *Port) int {
	id := int((uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(unsafe.SliceData(t.ports)))) / unsafe.Sizeof(Port{}))
	if id < 0 || id >= len(t.ports) || &t.ports[id] != p {
		panic("topo: PortID of a port outside this topology's port arena")
	}
	return id
}

// StructBytes is the topology graph's own resident memory — the node
// and port arenas plus the host list — excluding the router
// (RouteBytes). Together they give the deterministic bytes-per-host
// scale gauge.
func (t *Topology) StructBytes() int64 {
	return int64(cap(t.Nodes))*int64(unsafe.Sizeof(Node{})) +
		int64(cap(t.ports))*int64(unsafe.Sizeof(Port{})) +
		int64(cap(t.Hosts))*int64(unsafe.Sizeof(packet.NodeID(0)))
}

// ECMP picks one egress port for a (src, dst) pair among the
// equal-cost candidates. The hash depends only on the pair, so all
// flows between the same hosts share one path (the paper's §3.2
// assumption for per-dst windows).
func (t *Topology) ECMP(n, src, dst packet.NodeID) int {
	ports := t.NextPorts(n, dst)
	if len(ports) == 1 {
		return ports[0]
	}
	h := pairHash(uint64(src), uint64(dst))
	return ports[h%uint64(len(ports))]
}

// PairHash exposes the ECMP pair hash so the device layer can
// replicate route selection over a reduced (live) port subset when
// fault injection takes links out of service.
func PairHash(a, b uint64) uint64 { return pairHash(a, b) }

func pairHash(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// SamePod reports whether destination host dst lives under the same
// pod as switch n (Floodgate's downstream/upstream VOQ grouping).
// Like NextPorts, it panics with a clear message when dst is not a
// host.
func (t *Topology) SamePod(n, dst packet.NodeID) bool {
	t.mustHostIndex(dst)
	return t.Nodes[n].Pod >= 0 && t.Nodes[n].Pod == t.Nodes[dst].Pod
}

// builder assembles nodes and links then freezes them into a Topology.
// newBuilder sizes the arenas exactly, so each is allocated once: adding
// past a count it was given panics, and so does freezing short of one.
type builder struct {
	nodes []Node
	hosts []packet.NodeID
	ports []Port
}

// newBuilder returns a builder for exactly nodes nodes, hosts of them
// hosts, and links full-duplex links.
func newBuilder(nodes, hosts, links int) *builder {
	return &builder{nodes: make([]Node, 0, nodes), hosts: make([]packet.NodeID, 0, hosts), ports: make([]Port, 0, 2*links)}
}

// addNode adds a node that will have exactly nports ports (every
// builder knows: a Clos ToR has AggsPerPod + HostsPerToR), reserving
// its window of the port arena.
func (b *builder) addNode(kind NodeKind, layer Layer, pod, rack, nports int) packet.NodeID {
	off := len(b.ports)
	if len(b.nodes) == cap(b.nodes) || off+nports > cap(b.ports) || kind == HostNode && len(b.hosts) == cap(b.hosts) {
		panic(fmt.Sprintf("topo: node %d exceeds the node, host or link count newBuilder was given", len(b.nodes)))
	}
	b.ports = b.ports[:off+nports]
	id := packet.NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Layer: layer, Pod: int32(pod), Rack: int32(rack),
		Ports: b.ports[off : off : off+nports]})
	if kind == HostNode {
		b.hosts = append(b.hosts, id)
	}
	return id
}

// connect adds a full-duplex link between a and b as two directed
// ports with the given rate, propagation delay and per-direction class.
func (b *builder) connect(a, bb packet.NodeID, rate units.BitRate, prop units.Duration, aClass, bClass PortClass) {
	na, nb := &b.nodes[a], &b.nodes[bb]
	if len(na.Ports) == cap(na.Ports) || len(nb.Ports) == cap(nb.Ports) {
		panic(fmt.Sprintf("topo: link %s - %s exceeds the port count addNode was given", na.Name(), nb.Name()))
	}
	pa := Port{Owner: a, Index: int32(len(na.Ports)), Peer: bb, Rate: rate, Prop: prop, Class: aClass}
	pb := Port{Owner: bb, Index: int32(len(nb.Ports)), Peer: a, Rate: rate, Prop: prop, Class: bClass}
	pa.PeerPort = pb.Index
	pb.PeerPort = pa.Index
	na.Ports = append(na.Ports, pa)
	nb.Ports = append(nb.Ports, pb)
}

// freeze builds the router and returns the immutable topology.
// newRouter panics, naming the structural check, on a fabric that is not
// a regular Clos; no exported builder produces one.
func (b *builder) freeze() *Topology {
	if len(b.nodes) != cap(b.nodes) || len(b.hosts) != cap(b.hosts) || len(b.ports) != cap(b.ports) {
		panic("topo: fabric has fewer nodes, hosts or links than newBuilder was given")
	}
	t := &Topology{Nodes: b.nodes, Hosts: b.hosts, ports: b.ports}
	t.router = newRouter(t)
	return t
}
