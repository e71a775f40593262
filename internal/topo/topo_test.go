package topo

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

func TestLeafSpineShape(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	if got := tp.NumHosts(); got != 160 {
		t.Fatalf("hosts = %d, want 160", got)
	}
	spines, tors := 0, 0
	for _, n := range tp.Nodes {
		switch {
		case n.Kind == SwitchNode && n.Layer == LayerCore:
			spines++
			if len(n.Ports) != 10 {
				t.Fatalf("spine %s has %d ports, want 10", n.Name(), len(n.Ports))
			}
		case n.Kind == SwitchNode && n.Layer == LayerToR:
			tors++
			if len(n.Ports) != 20 {
				t.Fatalf("tor %s has %d ports, want 20 (4 up + 16 down)", n.Name(), len(n.Ports))
			}
		case n.Kind == HostNode:
			if len(n.Ports) != 1 {
				t.Fatalf("host %s has %d ports", n.Name(), len(n.Ports))
			}
		}
	}
	if spines != 4 || tors != 10 {
		t.Fatalf("spines=%d tors=%d, want 4/10", spines, tors)
	}
}

func TestPortSymmetry(t *testing.T) {
	for _, tp := range []*Topology{
		DefaultLeafSpine().Build(),
		DefaultFatTree().Build(),
		DefaultTestbed().Build(),
	} {
		for _, n := range tp.Nodes {
			for i, p := range n.Ports {
				if p.Owner != n.ID || p.Index != int32(i) {
					t.Fatalf("%s port %d: bad owner/index", n.Name(), i)
				}
				back := tp.Node(p.Peer).Ports[p.PeerPort]
				if back.Peer != n.ID || back.PeerPort != int32(i) {
					t.Fatalf("%s port %d: asymmetric reverse port", n.Name(), i)
				}
				if back.Rate != p.Rate || back.Prop != p.Prop {
					t.Fatalf("%s port %d: rate/prop asymmetry", n.Name(), i)
				}
			}
		}
	}
}

func TestPortClasses(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	for _, n := range tp.Nodes {
		for _, p := range n.Ports {
			peer := tp.Node(p.Peer)
			switch {
			case n.Kind == HostNode:
				if p.Class != ClassHost {
					t.Fatalf("host port classified %v", p.Class)
				}
			case n.Layer == LayerToR && peer.Kind == HostNode:
				if p.Class != ClassToRDown {
					t.Fatalf("ToR->host port classified %v", p.Class)
				}
			case n.Layer == LayerToR && peer.Layer == LayerCore:
				if p.Class != ClassToRUp {
					t.Fatalf("ToR->spine port classified %v", p.Class)
				}
			case n.Layer == LayerCore:
				if p.Class != ClassCore {
					t.Fatalf("spine port classified %v", p.Class)
				}
			}
		}
	}
}

func TestRoutesLeafSpine(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	src, dst := tp.Hosts[0], tp.Hosts[159] // different racks
	// Host's only route is its uplink.
	if got := tp.NextPorts(src, dst); len(got) != 1 {
		t.Fatalf("host next ports = %v", got)
	}
	// Source ToR should have 4 equal-cost spine uplinks.
	tor := tp.Node(src).Ports[0].Peer
	if got := tp.NextPorts(tor, dst); len(got) != 4 {
		t.Fatalf("ToR ECMP fanout = %d, want 4", len(got))
	}
	// Same-rack destination: exactly one down port.
	sameRack := tp.Hosts[1]
	got := tp.NextPorts(tor, sameRack)
	if len(got) != 1 {
		t.Fatalf("same-rack next ports = %v", got)
	}
	if tp.Node(tor).Ports[got[0]].Peer != sameRack {
		t.Fatal("same-rack route does not lead to the host")
	}
	// Spine to any host: single down port to the right ToR.
	for _, n := range tp.Nodes {
		if n.Layer != LayerCore {
			continue
		}
		ports := tp.NextPorts(n.ID, dst)
		if len(ports) != 1 {
			t.Fatalf("spine %s has %d routes to host", n.Name(), len(ports))
		}
	}
}

func TestECMPStablePerPair(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	src, dst := tp.Hosts[3], tp.Hosts[40]
	tor := tp.Node(src).Ports[0].Peer
	first := tp.ECMP(tor, src, dst)
	for i := 0; i < 50; i++ {
		if tp.ECMP(tor, src, dst) != first {
			t.Fatal("ECMP not stable for a fixed (src,dst) pair")
		}
	}
}

func TestECMPSpreadsAcrossPairs(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	dst := tp.Hosts[150]
	tor := tp.Node(tp.Hosts[0]).Ports[0].Peer
	used := map[int]bool{}
	for i := 0; i < 16; i++ {
		used[tp.ECMP(tor, tp.Hosts[i], dst)] = true
	}
	if len(used) < 2 {
		t.Fatalf("ECMP used only %d uplinks across 16 sources", len(used))
	}
}

func TestFatTreeShape(t *testing.T) {
	tp := DefaultFatTree().Build()
	if tp.NumHosts() != 128 {
		t.Fatalf("fat-tree hosts = %d, want 128", tp.NumHosts())
	}
	var cores, aggs, edges int
	for _, n := range tp.Nodes {
		if n.Kind != SwitchNode {
			continue
		}
		switch n.Layer {
		case LayerCore:
			cores++
		case LayerAgg:
			aggs++
		case LayerToR:
			edges++
		}
	}
	if cores != 16 || aggs != 32 || edges != 32 {
		t.Fatalf("cores=%d aggs=%d edges=%d, want 16/32/32", cores, aggs, edges)
	}
}

func TestFatTreeRoutesAndPods(t *testing.T) {
	tp := DefaultFatTree().Build()
	// Cross-pod route from an edge must fan out across all 4 aggs.
	src := tp.Hosts[0]
	dst := tp.Hosts[127]
	if tp.Node(src).Pod == tp.Node(dst).Pod {
		t.Fatal("test expects cross-pod pair")
	}
	edge := tp.Node(src).Ports[0].Peer
	if got := len(tp.NextPorts(edge, dst)); got != 4 {
		t.Fatalf("edge cross-pod fanout = %d, want 4", got)
	}
	// SamePod classification.
	if !tp.SamePod(edge, src) {
		t.Fatal("edge should be in the same pod as its host")
	}
	if tp.SamePod(edge, dst) {
		t.Fatal("cross-pod host misclassified as same pod")
	}
	// Agg cross-pod: fanout across its K/2 core uplinks.
	agg := tp.Node(edge).Ports[0].Peer
	if tp.Node(agg).Layer != LayerAgg {
		t.Fatalf("edge port 0 peer layer = %v", tp.Node(agg).Layer)
	}
	if got := len(tp.NextPorts(agg, dst)); got != 4 {
		t.Fatalf("agg cross-pod fanout = %d, want 4", got)
	}
}

func TestRoutesReachabilityAllPairs(t *testing.T) {
	for _, tp := range []*Topology{
		LeafSpineConfig{Spines: 2, ToRs: 3, HostsPerToR: 2, HostRate: units.Gbps, SpineRate: units.Gbps, Prop: units.Nanosecond}.Build(),
		FatTree(4).Build(),
		DefaultTestbed().Build(),
	} {
		for _, src := range tp.Hosts {
			for _, dst := range tp.Hosts {
				if src == dst {
					continue
				}
				// Walk the route hop by hop; must terminate at dst without loops.
				cur := src
				for hops := 0; cur != dst; hops++ {
					if hops > 10 {
						t.Fatalf("routing loop from %d to %d", src, dst)
					}
					p := tp.Node(cur).Ports[tp.ECMP(cur, src, dst)]
					cur = p.Peer
				}
			}
		}
	}
}

func TestTestbedShape(t *testing.T) {
	tp := DefaultTestbed().Build()
	if tp.NumHosts() != 6 {
		t.Fatalf("testbed hosts = %d, want 6", tp.NumHosts())
	}
	// Base BDP should be ~45KB per the paper: host rate 10Gbps, RTT over
	// 4 hops ≈ 36us -> 45KB.
	var hostPort *Port
	for _, n := range tp.Nodes {
		if n.Kind == HostNode {
			hostPort = &n.Ports[0]
			break
		}
	}
	rtt := 8 * hostPort.Prop // 4 links each way
	bdp := units.BDP(hostPort.Rate, rtt)
	if bdp < 40*units.KB || bdp > 50*units.KB {
		t.Fatalf("testbed base BDP = %v, want ~45KB", bdp)
	}
}

func TestPortBDP(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	tor := tp.Node(tp.Hosts[0]).Ports[0].Peer
	var up *Port
	for i := range tp.Node(tor).Ports {
		p := &tp.Node(tor).Ports[i]
		if p.Class == ClassToRUp {
			up = p
			break
		}
	}
	// 400Gbps * 1.2us = 60KB + MTU.
	want := units.ByteSize(60000) + packet.MTU
	if got := up.BDP(); got != want {
		t.Fatalf("uplink BDP = %d, want %d", got, want)
	}
}

func TestOversubscribedUplinks(t *testing.T) {
	c := DefaultLeafSpine()
	c.Oversubscription = 4
	tp := c.Build()
	for _, n := range tp.Nodes {
		if n.Layer != LayerToR {
			continue
		}
		for _, p := range n.Ports {
			if p.Class == ClassToRUp && p.Rate != 100*units.Gbps {
				t.Fatalf("oversubscribed uplink rate = %v, want 100Gbps", p.Rate)
			}
		}
	}
}

func TestHostIndexDense(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	seen := map[int]bool{}
	for _, h := range tp.Hosts {
		idx := tp.router.hostIndex(h)
		if idx < 0 || idx >= tp.NumHosts() || seen[idx] {
			t.Fatalf("bad host index %d", idx)
		}
		seen[idx] = true
	}
	for _, n := range tp.Nodes {
		if n.Kind == SwitchNode && tp.router.hostIndex(n.ID) != -1 {
			t.Fatal("switch has a host index")
		}
	}
}

func TestPairHashDeterministicAndSpread(t *testing.T) {
	f := func(a, b uint32) bool {
		x := pairHash(uint64(a), uint64(b))
		return x == pairHash(uint64(a), uint64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	buckets := make([]int, 4)
	for i := 0; i < 4096; i++ {
		buckets[pairHash(uint64(i), 7)%4]++
	}
	for i, c := range buckets {
		if c < 800 || c > 1250 {
			t.Fatalf("pairHash bucket %d count %d far from uniform", i, c)
		}
	}
}

// TestBuildersSizePortsExactly pins the build-without-garbage contract:
// every builder tells addNode each node's exact port count (connect
// panics on one too many; spare capacity here is one too few), and
// Name(), rendered on demand, still tells every node apart.
func TestBuildersSizePortsExactly(t *testing.T) {
	for name, tp := range map[string]*Topology{
		"leafspine": DefaultLeafSpine().Build(),
		"oversub":   LeafSpineConfig{Spines: 3, ToRs: 5, HostsPerToR: 7, HostRate: units.Gbps, SpineRate: units.Gbps, Prop: units.Nanosecond, Oversubscription: 4}.Build(),
		"fattree":   DefaultFatTree().Build(),
		"fattree16": FatTree(16).Build(),
		"clos":      DefaultClos().Build(),
		"clos-odd":  ClosConfig{Pods: 3, AggsPerPod: 2, SpinesPerPlane: 5, ToRsPerPod: 3, HostsPerToR: 300, HostRate: units.Gbps, FabricRate: units.Gbps, Prop: units.Nanosecond}.Build(),
		"testbed":   DefaultTestbed().Build(),
	} {
		names := make(map[string]bool, len(tp.Nodes))
		for _, n := range tp.Nodes {
			if cap(n.Ports) != len(n.Ports) {
				t.Fatalf("%s: %s has %d ports in a list sized for %d", name, n.Name(), len(n.Ports), cap(n.Ports))
			}
			if names[n.Name()] {
				t.Fatalf("%s: two nodes are named %s", name, n.Name())
			}
			names[n.Name()] = true
		}
	}
}

// TestArenasAreTheTopology pins the flat layout: every builder allocates
// its node arena, host list and port arena once at exact size; each
// node's Ports are its window of the port arena in ID order, so a port's
// arena offset (PortID) counts the directed ports before it; and
// StructBytes reports exactly those arenas.
func TestArenasAreTheTopology(t *testing.T) {
	for name, tp := range map[string]*Topology{
		"leafspine": DefaultLeafSpine().Build(),
		"fattree":   DefaultFatTree().Build(),
		"clos":      DefaultClos().Build(),
		"clos-odd":  ClosConfig{Pods: 3, AggsPerPod: 2, SpinesPerPlane: 5, ToRsPerPod: 3, HostsPerToR: 300, HostRate: units.Gbps, FabricRate: units.Gbps, Prop: units.Nanosecond}.Build(),
		"testbed":   DefaultTestbed().Build(),
	} {
		if cap(tp.Nodes) != len(tp.Nodes) || cap(tp.Hosts) != len(tp.Hosts) || cap(tp.ports) != len(tp.ports) {
			t.Fatalf("%s: arenas sized %d/%d/%d for %d nodes, %d hosts, %d ports", name,
				cap(tp.Nodes), cap(tp.Hosts), cap(tp.ports), len(tp.Nodes), len(tp.Hosts), len(tp.ports))
		}
		next := 0
		for _, n := range tp.Nodes {
			for i := range n.Ports {
				if id := tp.PortID(&n.Ports[i]); id != next || tp.Port(id) != &n.Ports[i] {
					t.Fatalf("%s: %s port %d has directed-port index %d, want %d", name, n.Name(), i, id, next)
				}
				next++
			}
		}
		if next != tp.TotalPorts() {
			t.Fatalf("%s: nodes hold %d ports, TotalPorts says %d", name, next, tp.TotalPorts())
		}
		want := int64(len(tp.Nodes))*int64(unsafe.Sizeof(Node{})) + int64(next)*int64(unsafe.Sizeof(Port{})) +
			int64(len(tp.Hosts))*int64(unsafe.Sizeof(packet.NodeID(0)))
		if got := tp.StructBytes(); got != want {
			t.Fatalf("%s: StructBytes = %d, arenas hold %d", name, got, want)
		}
	}
	if unsafe.Sizeof(Node{}) != 40 || unsafe.Sizeof(Port{}) != 40 {
		t.Errorf("Node is %d bytes and Port %d, want 40 and 40 (32-bit counts and indexes)", unsafe.Sizeof(Node{}), unsafe.Sizeof(Port{}))
	}
}

// TestPresetLayouts pins every preset's layout, node for node: node and
// port counts, the two memory accounts and a digest of the node, host
// and port arenas. A layout move must be deliberate: exp's run keys hash
// every node and its ports, so it renames the -obs files of every run
// on that fabric.
func TestPresetLayouts(t *testing.T) {
	for _, c := range []struct {
		name          string
		cfg           interface{ Build() *Topology }
		nodes, ports  int
		struc, routes int64
		digest        uint64
	}{
		{"testbed", DefaultTestbed(), 10, 18, 1144, 160, 0xe64893c3389f6b33},
		{"fattree", DefaultFatTree(), 208, 768, 39552, 2816, 0x3f2ae9d10288a65},
		{"fattree4", FatTree(4), 36, 96, 5344, 656, 0x1590f2f56965d915},
		{"fattree16", FatTree(16), 1344, 6144, 303616, 13184, 0x997c4329d4b22207},
		{"fattree32", FatTree(32), 9472, 49152, 2377728, 68864, 0xf2cac65a248b5135},
		{"clos", DefaultClos(), 156, 352, 20832, 1376, 0xc65aee475dab14f5},
		{"clos100k", Clos100k(), 103872, 219136, 13329920, 451488, 0xa060fe0a5244f21d},
	} {
		tp := c.cfg.Build()
		if len(tp.Nodes) != c.nodes || tp.TotalPorts() != c.ports || tp.StructBytes() != c.struc || tp.RouteBytes() != c.routes {
			t.Errorf("%s: %d nodes, %d ports, %d struct bytes, %d route bytes; want %d, %d, %d, %d", c.name,
				len(tp.Nodes), tp.TotalPorts(), tp.StructBytes(), tp.RouteBytes(), c.nodes, c.ports, c.struc, c.routes)
		}
		if d := layoutDigest(tp); d != c.digest {
			t.Errorf("%s: layout digest %#x, want %#x", c.name, d, c.digest)
		}
	}
}

// layoutDigest is an FNV-64a hash of every node's fields and port
// count, the host list and every port of the arena, in ID order.
func layoutDigest(tp *Topology) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	for i := range tp.Nodes {
		n := &tp.Nodes[i]
		put(int64(n.ID), int64(n.Kind), int64(n.Layer), int64(n.Pod), int64(n.Rack), int64(len(n.Ports)))
	}
	for _, id := range tp.Hosts {
		put(int64(id))
	}
	for _, p := range tp.ports {
		put(int64(p.Owner), int64(p.Index), int64(p.Peer), int64(p.PeerPort), int64(p.Rate), int64(p.Prop), int64(p.Class))
	}
	return h.Sum64()
}

// TestBuilderRejectsWrongCounts pins that a wrong newBuilder hint fails
// loudly instead of re-growing an arena: one node, host or link too many
// panics at addNode, and a fabric short of its counts panics at freeze.
func TestBuilderRejectsWrongCounts(t *testing.T) {
	// A one-link fabric: a ToR and its host.
	wire := func(b *builder, hosts int) {
		tor := b.addNode(SwitchNode, LayerToR, 0, 0, hosts)
		for h := 0; h < hosts; h++ {
			b.connect(tor, b.addNode(HostNode, LayerHost, 0, 0, 1), units.Gbps, units.Nanosecond, ClassToRDown, ClassHost)
		}
	}
	for name, c := range map[string]struct {
		nodes, hosts, links, wired int
		want                       string
	}{
		"one node too many": {1, 1, 1, 1, "exceeds"},
		"one host too many": {2, 0, 1, 1, "exceeds"},
		"one link too many": {3, 2, 1, 2, "exceeds"},
		"nodes short":       {3, 1, 1, 1, "fewer"},
		"links short":       {2, 1, 2, 1, "fewer"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one containing %q", name, msg, c.want)
				}
			}()
			b := newBuilder(c.nodes, c.hosts, c.links)
			wire(b, c.wired)
			b.freeze()
		}()
	}
}

// TestClos100kFootprint is the datacenter-scale memory claim, read from
// the live heap: building the 102,400-host Clos retains what
// StructBytes + RouteBytes report, to within allocator rounding, and
// that is under 160 bytes per host (213 with 64-bit records, a
// []*Node and a separate host index).
func TestClos100kFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host build skipped in -short")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tp := Clos100k().Build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	reported := tp.StructBytes() + tp.RouteBytes()
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if slack := live - reported; slack < -64<<10 || slack > 64<<10 {
		t.Errorf("building Clos100k retained %d bytes, StructBytes + RouteBytes report %d", live, reported)
	}
	if perHost := reported / int64(tp.NumHosts()); perHost >= 160 {
		t.Errorf("topology + router hold %d bytes per host, want under 160", perHost)
	}
	runtime.KeepAlive(tp)
}

// TestRouterRejectsMultiHomedHost: the router keeps no record for a
// host, whose only route is its one port, so freeze refuses a host wired
// to two ToRs, naming the check, instead of routing it through port 0
// alone.
func TestRouterRejectsMultiHomedHost(t *testing.T) {
	b := newBuilder(4, 1, 4)
	spine := b.addNode(SwitchNode, LayerCore, -1, -1, 2)
	var tors [2]packet.NodeID
	for i := range tors {
		tors[i] = b.addNode(SwitchNode, LayerToR, 0, i, 2)
		b.connect(tors[i], spine, 400*units.Gbps, units.Microsecond, ClassToRUp, ClassCore)
	}
	host := b.addNode(HostNode, LayerHost, 0, 0, 2)
	for _, tor := range tors {
		b.connect(tor, host, 100*units.Gbps, units.Microsecond, ClassToRDown, ClassHost)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, checkHomed) {
			t.Fatalf("dual-homed host: freeze panic %q, want one naming %q", msg, checkHomed)
		}
	}()
	b.freeze()
}
