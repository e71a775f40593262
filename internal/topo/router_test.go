package topo

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// denseRoutes is the BFS oracle: the per-(node, host) candidate tables
// structural routing replaced, built with one reverse BFS per host.
// Memory is O(nodes × hosts) slice headers plus the candidate entries —
// fine to a few thousand hosts, hundreds of GB at datacenter scale.
type denseRoutes struct {
	routes [][][]int // [nodeID][hostIdx] -> candidate egress port indices
	bytes  int64
}

func newDenseRoutes(t *Topology) *denseRoutes {
	n := len(t.Nodes)
	r := &denseRoutes{routes: make([][][]int, n)}
	for i := range r.routes {
		r.routes[i] = make([][]int, len(t.Hosts))
	}
	dist := make([]int, n)
	queue := make([]packet.NodeID, 0, n)
	entries := 0
	for hi, h := range t.Hosts {
		entries += bfsColumn(t, h, dist, queue, func(node packet.NodeID, ports []int) {
			r.routes[node][hi] = ports
		})
	}
	const sliceHeader = int64(unsafe.Sizeof([]int{}))
	r.bytes = sliceHeader*int64(n) + // outer [nodeID] headers
		sliceHeader*int64(n)*int64(len(t.Hosts)) + // per-(node,host) headers
		8*int64(entries) // candidate port entries
	return r
}

// bfsColumn runs one reverse BFS from host h and hands every node its
// candidate next-hop ports (ascending port index) via emit: all ports
// whose peer is one step closer to h. dist and queue are caller-owned
// scratch (len(dist) == len(t.Nodes)); the emitted slices share one
// arena. Returns the number of candidate entries emitted. It is also the
// per-host oracle sampled at scales where a full dense table would not
// fit.
func bfsColumn(t *Topology, h packet.NodeID, dist []int, queue []packet.NodeID, emit func(packet.NodeID, []int)) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[h] = 0
	queue = append(queue[:0], h)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range t.Nodes[cur].Ports {
			// Traverse the reverse direction: peer can reach cur.
			if peer := p.Peer; dist[peer] == -1 {
				dist[peer] = dist[cur] + 1
				queue = append(queue, peer)
			}
		}
	}
	arena := make([]int, 0, t.TotalPorts())
	for _, node := range t.Nodes {
		if node.ID == h || dist[node.ID] == -1 {
			continue
		}
		lo := len(arena)
		for i, p := range node.Ports {
			if d := dist[p.Peer]; d >= 0 && d == dist[node.ID]-1 {
				arena = append(arena, i)
			}
		}
		emit(node.ID, arena[lo:len(arena):len(arena)])
	}
	return len(arena)
}

func equalPorts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterEquivalence asserts, for every builder, that structural
// routing returns the identical ordered candidate set as the dense BFS
// oracle at every (node, host) pair: the proof obligation that replacing
// the tables did not disturb a single ECMP choice.
func TestRouterEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Topology
	}{
		{"leafspine", func() *Topology { return DefaultLeafSpine().Build() }},
		{"leafspine-oversub4", func() *Topology {
			c := DefaultLeafSpine()
			c.Oversubscription = 4
			return c.Build()
		}},
		{"fattree-k4", func() *Topology {
			return FatTreeConfig{K: 4, Rate: 100 * units.Gbps, Prop: 600 * units.Nanosecond}.Build()
		}},
		{"fattree-k8", func() *Topology { return DefaultFatTree().Build() }},
		{"fattree-k16", func() *Topology { return FatTree16().Build() }},
		{"clos", func() *Topology { return DefaultClos().Build() }},
		{"testbed", func() *Topology { return DefaultTestbed().Build() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.build()
			dr := newDenseRoutes(tp)
			for _, n := range tp.Nodes {
				for hi, h := range tp.Hosts {
					got, want := tp.NextPorts(n.ID, h), dr.routes[n.ID][hi]
					if !equalPorts(got, want) {
						t.Fatalf("%s -> host[%d]: structural %v != dense %v", n.Name(), hi, got, want)
					}
				}
			}
		})
	}
}

// TestRouterEquivalenceSampled covers the sizes where a full dense
// table no longer fits (k=32 fat tree ~1.9 GB of headers, the 100k
// Clos ~250 TB): structural routing is checked against per-host BFS
// columns for a deterministic sample of destinations, at every node.
func TestRouterEquivalenceSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("large-topology sampling skipped in -short")
	}
	cases := []struct {
		name  string
		build func() *Topology
	}{
		{"fattree-k32", func() *Topology { return FatTree32().Build() }},
		{"clos100k", func() *Topology { return Clos100k().Build() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.build()
			dist := make([]int, len(tp.Nodes))
			queue := make([]packet.NodeID, 0, len(tp.Nodes))
			// Deterministic sample: a fixed stride plus the edges of
			// the range, so first/last racks and pod boundaries are hit.
			sample := []int{0, 1, len(tp.Hosts)/2 - 1, len(tp.Hosts) / 2, len(tp.Hosts) - 2, len(tp.Hosts) - 1}
			for hi := 0; hi < len(tp.Hosts); hi += len(tp.Hosts)/29 + 1 {
				sample = append(sample, hi)
			}
			for _, hi := range sample {
				h := tp.Hosts[hi]
				checked := make([]bool, len(tp.Nodes))
				bfsColumn(tp, h, dist, queue, func(n packet.NodeID, want []int) {
					checked[n] = true
					if got := tp.NextPorts(n, h); !equalPorts(got, want) {
						t.Fatalf("%s -> host[%d]: structural %v != bfs %v", tp.Nodes[n].Name(), hi, got, want)
					}
				})
				for _, n := range tp.Nodes {
					if !checked[n.ID] && n.ID != h {
						t.Fatalf("bfs never reached %s for host[%d]", n.Name(), hi)
					}
				}
			}
		})
	}
}

// TestRouterSelection pins that every builder, the §5.2 testbed
// included, routes structurally — route memory within the O(total
// ports) bound and far below the dense oracle's — and that a fabric
// failing a structural check panics at freeze naming the check.
func TestRouterSelection(t *testing.T) {
	for name, tp := range map[string]*Topology{
		"leafspine": DefaultLeafSpine().Build(),
		"fattree":   DefaultFatTree().Build(),
		"clos":      DefaultClos().Build(),
		"testbed":   DefaultTestbed().Build(),
	} {
		b := tp.RouteBytes()
		if b > 32*int64(tp.TotalPorts()) || b >= newDenseRoutes(tp).bytes {
			t.Errorf("%s: route bytes %d are not structural (%d ports)", name, b, tp.TotalPorts())
		}
	}

	// An asymmetric fabric — one spine wired to only half the racks —
	// fails the symmetric-up-coverage check: 2 spines, 2 ToRs, 4 hosts
	// and 7 links.
	b := newBuilder(8, 4, 7)
	s0 := b.addNode(SwitchNode, LayerCore, -1, -1, 2)
	s1 := b.addNode(SwitchNode, LayerCore, -1, -1, 1)
	for r := 0; r < 2; r++ {
		tor := b.addNode(SwitchNode, LayerToR, r, r, 4-r) // s0, s1 for rack 0 only, two hosts
		b.connect(tor, s0, 400*units.Gbps, units.Microsecond, ClassToRUp, ClassCore)
		if r == 0 {
			b.connect(tor, s1, 400*units.Gbps, units.Microsecond, ClassToRUp, ClassCore)
		}
		for h := 0; h < 2; h++ {
			host := b.addNode(HostNode, LayerHost, r, r, 1)
			b.connect(tor, host, 100*units.Gbps, units.Microsecond, ClassToRDown, ClassHost)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, checkUpCover) {
			t.Fatalf("asymmetric fabric: freeze panic %q, want one naming %q", msg, checkUpCover)
		}
	}()
	b.freeze()
}

// TestRouteBytesRatio is the scale claim: at the k=16 fat tree
// structural routing is at least 100x smaller than the dense table it
// replaced.
func TestRouteBytesRatio(t *testing.T) {
	tp := FatTree16().Build()
	sb, db := tp.RouteBytes(), newDenseRoutes(tp).bytes
	if sb <= 0 || db <= 0 {
		t.Fatalf("non-positive route bytes: structural %d, dense %d", sb, db)
	}
	if ratio := db / sb; ratio < 100 {
		t.Fatalf("dense/structural route bytes = %d/%d = %dx, want >= 100x", db, sb, ratio)
	}
}

// TestStructuralBytesLinearInPorts pins the O(total ports) memory
// bound: router bytes stay within a small constant of the directed
// port count, independent of the host count.
func TestStructuralBytesLinearInPorts(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host build skipped in -short")
	}
	tp := Clos100k().Build()
	if got, want := tp.NumHosts(), 102400; got != want {
		t.Fatalf("Clos100k hosts = %d, want %d", got, want)
	}
	ports := int64(tp.TotalPorts())
	if b := tp.RouteBytes(); b > 32*ports {
		t.Fatalf("route bytes %d exceed 32 x %d directed ports — not O(total ports)", b, ports)
	}
}

// TestNextPortsRejectsNonHost is the satellite regression test: a
// switch or out-of-range dst must fail with the actionable message,
// not a cryptic index panic.
func TestNextPortsRejectsNonHost(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	sw := tp.Nodes[0].ID // spine0
	if tp.Nodes[sw].Kind != SwitchNode {
		t.Fatal("node 0 is not a switch")
	}
	mustPanic := func(name string, dst packet.NodeID, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s(dst=%d): no panic", name, dst)
			}
			want := fmt.Sprintf("topo: dst %d is not a host", dst)
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("%s(dst=%d): panic %v, want %q", name, dst, r, want)
			}
		}()
		fn()
	}
	h := tp.Hosts[0]
	mustPanic("NextPorts", sw, func() { tp.NextPorts(h, sw) })
	mustPanic("ECMP", sw, func() { tp.ECMP(h, h, sw) })
	mustPanic("SamePod", sw, func() { tp.SamePod(h, sw) })
	oob := packet.NodeID(len(tp.Nodes) + 7)
	mustPanic("NextPorts", oob, func() { tp.NextPorts(h, oob) })
	mustPanic("NextPorts", -1, func() { tp.NextPorts(h, -1) })
}

// TestClosShape pins the Clos builder's metadata: counts, pods,
// racks and port classes.
func TestClosShape(t *testing.T) {
	c := DefaultClos()
	tp := c.Build()
	wantHosts := c.NumHosts()
	if len(tp.Hosts) != wantHosts {
		t.Fatalf("hosts = %d, want %d", len(tp.Hosts), wantHosts)
	}
	wantSwitches := c.AggsPerPod*c.SpinesPerPlane + c.Pods*(c.AggsPerPod+c.ToRsPerPod)
	if got := len(tp.Nodes) - wantHosts; got != wantSwitches {
		t.Fatalf("switches = %d, want %d", got, wantSwitches)
	}
	var tors, aggs, cores int
	for _, n := range tp.Nodes {
		switch {
		case n.Kind == HostNode:
			if n.Pod < 0 || n.Rack < 0 {
				t.Fatalf("host %s missing pod/rack", n.Name())
			}
		case n.Layer == LayerToR:
			tors++
			if len(n.Ports) != c.AggsPerPod+c.HostsPerToR {
				t.Fatalf("%s has %d ports", n.Name(), len(n.Ports))
			}
			for i, p := range n.Ports {
				want := ClassToRDown
				if i < c.AggsPerPod {
					want = ClassToRUp
				}
				if p.Class != want {
					t.Fatalf("%s port %d class %v, want %v", n.Name(), i, p.Class, want)
				}
			}
		case n.Layer == LayerAgg:
			aggs++
			if len(n.Ports) != c.SpinesPerPlane+c.ToRsPerPod {
				t.Fatalf("%s has %d ports", n.Name(), len(n.Ports))
			}
		case n.Layer == LayerCore:
			cores++
			if len(n.Ports) != c.Pods {
				t.Fatalf("spine %s has %d ports, want one per pod", n.Name(), len(n.Ports))
			}
		}
	}
	if tors != c.Pods*c.ToRsPerPod || aggs != c.Pods*c.AggsPerPod || cores != c.AggsPerPod*c.SpinesPerPlane {
		t.Fatalf("layer counts tor=%d agg=%d core=%d", tors, aggs, cores)
	}
	// ECMP fanout: cross-pod traffic at a ToR spreads over all uplinks.
	tor := tp.Nodes[tp.Hosts[0]].Ports[0].Peer
	if got := len(tp.NextPorts(tor, tp.Hosts[wantHosts-1])); got != c.AggsPerPod {
		t.Fatalf("ToR cross-pod fanout = %d, want %d", got, c.AggsPerPod)
	}
}
