package topo

import (
	"fmt"
	"strings"
	"testing"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// routerPair builds both implementations for one topology, regardless
// of which one it froze with.
func routerPair(t *testing.T, tp *Topology) (*StructuralRouter, *DenseRouter) {
	t.Helper()
	sr, err := NewStructuralRouter(tp)
	if err != nil {
		t.Fatalf("structural inference failed: %v", err)
	}
	return sr, NewDenseRouter(tp)
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

// TestRouterEquivalence asserts, for every builder, that the
// structural router returns the identical ordered candidate set as
// the dense BFS oracle at every (node, host) pair. This is the proof
// obligation that lets freeze() swap implementations without
// disturbing a single ECMP choice.
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
		// The testbed freezes dense by policy, but its star shape is
		// regular enough that structural inference succeeds — the
		// equivalence still holds, proving the fallback is a policy
		// choice, not a correctness requirement there.
		{"testbed", func() *Topology { return DefaultTestbed().Build() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.build()
			sr, dr := routerPair(t, tp)
			for _, n := range tp.Nodes {
				for hi := range tp.Hosts {
					got, want := sr.NextPorts(n.ID, hi), dr.NextPorts(n.ID, hi)
					if !equalPorts(got, want) {
						t.Fatalf("%s -> host[%d]: structural %v != dense %v", n.Name(), hi, want, got)
					}
				}
			}
		})
	}
}

// TestRouterEquivalenceSampled covers the sizes where a full dense
// table no longer fits (k=32 fat tree ~1.9 GB of headers, the 100k
// Clos ~250 TB): the structural router is checked against per-host
// BFS columns for a deterministic sample of destinations, at every
// node.
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
			if got := tp.RouterKind(); got != "structural" {
				t.Fatalf("RouterKind = %q, want structural", got)
			}
			sr := tp.router.(*StructuralRouter)
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
					if got := sr.NextPorts(n, hi); !equalPorts(got, want) {
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

// TestRouterSelection pins which implementation each builder freezes
// with: structural for every regular Clos, dense for the testbed (by
// policy) and for irregular fabrics (by inference failure).
func TestRouterSelection(t *testing.T) {
	for name, tp := range map[string]*Topology{
		"leafspine": DefaultLeafSpine().Build(),
		"fattree":   DefaultFatTree().Build(),
		"clos":      DefaultClos().Build(),
	} {
		if got := tp.RouterKind(); got != "structural" {
			t.Errorf("%s: RouterKind = %q, want structural", name, got)
		}
	}
	if got := DefaultTestbed().Build().RouterKind(); got != "dense" {
		t.Errorf("testbed: RouterKind = %q, want dense (forced)", got)
	}

	// An asymmetric fabric — one spine wired to only half the racks —
	// must fail structural inference (unequal up-peer coverage) and
	// fall back to dense, which routes it correctly.
	b := &builder{}
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
	tp := b.freeze()
	if got := tp.RouterKind(); got != "dense" {
		t.Fatalf("asymmetric fabric: RouterKind = %q, want dense fallback", got)
	}
	if _, err := NewStructuralRouter(tp); err == nil {
		t.Fatal("structural inference accepted an asymmetric fabric")
	}
	// Cross-rack reachability still works through the fallback.
	if ports := tp.NextPorts(tp.Hosts[0], tp.Hosts[3]); len(ports) != 1 {
		t.Fatalf("dense fallback broken: host uplink candidates = %v", ports)
	}
}

// TestRouteBytesRatio is the acceptance gate's memory claim: at the
// k=16 fat tree the structural router must be at least 100x smaller
// than the dense table it replaces.
func TestRouteBytesRatio(t *testing.T) {
	tp := FatTree16().Build()
	sr, dr := routerPair(t, tp)
	if sr.Bytes() <= 0 || dr.Bytes() <= 0 {
		t.Fatalf("non-positive route bytes: structural %d, dense %d", sr.Bytes(), dr.Bytes())
	}
	if ratio := dr.Bytes() / sr.Bytes(); ratio < 100 {
		t.Fatalf("dense/structural route bytes = %d/%d = %dx, want >= 100x", dr.Bytes(), sr.Bytes(), ratio)
	}
	if got := tp.RouteBytes(); got != sr.Bytes() {
		t.Fatalf("Topology.RouteBytes = %d, want structural %d", got, sr.Bytes())
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
	if got := tp.RouterKind(); got != "structural" {
		t.Fatalf("Clos100k RouterKind = %q, want structural", got)
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
