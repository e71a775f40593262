package topo

import (
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// LeafSpineConfig describes the paper's main 2-tier non-blocking
// evaluation fabric (§6): 4 spines, 10 ToRs, 16 hosts per rack,
// 100 Gbps host links, 400 Gbps uplinks, 600 ns per-hop propagation.
type LeafSpineConfig struct {
	Spines      int
	ToRs        int
	HostsPerToR int
	HostRate    units.BitRate
	SpineRate   units.BitRate
	Prop        units.Duration
	// Oversubscription divides the uplink rate (1 = non-blocking,
	// 4 = the 4:1 fabric of Fig. 24b). Zero means 1.
	Oversubscription int
}

// DefaultLeafSpine returns the paper's §6 simulation topology.
func DefaultLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{
		Spines:      4,
		ToRs:        10,
		HostsPerToR: 16,
		HostRate:    100 * units.Gbps,
		SpineRate:   400 * units.Gbps,
		Prop:        600 * units.Nanosecond,
	}
}

// Build constructs the leaf–spine topology. Every ToR connects to
// every spine. Each rack is its own pod (pods matter only for VOQ
// grouping, which 2-tier ToRs do not need, but the metadata is kept
// consistent).
func (c LeafSpineConfig) Build() *Topology {
	if c.Spines <= 0 || c.ToRs <= 0 || c.HostsPerToR <= 0 {
		panic("topo: leaf-spine dimensions must be positive")
	}
	up := c.SpineRate
	if c.Oversubscription > 1 {
		up /= units.BitRate(c.Oversubscription)
	}
	b := newBuilder(c.Spines+c.ToRs*(1+c.HostsPerToR), c.ToRs*c.HostsPerToR, c.ToRs*(c.Spines+c.HostsPerToR))
	spines := make([]packet.NodeID, 0, c.Spines)
	for s := 0; s < c.Spines; s++ {
		spines = append(spines, b.addNode(SwitchNode, LayerCore, -1, -1, c.ToRs))
	}
	for r := 0; r < c.ToRs; r++ {
		tor := b.addNode(SwitchNode, LayerToR, r, r, c.Spines+c.HostsPerToR)
		for _, s := range spines {
			b.connect(tor, s, up, c.Prop, ClassToRUp, ClassCore)
		}
		for h := 0; h < c.HostsPerToR; h++ {
			host := b.addNode(HostNode, LayerHost, r, r, 1)
			b.connect(tor, host, c.HostRate, c.Prop, ClassToRDown, ClassHost)
		}
	}
	return b.freeze()
}

// FatTreeConfig describes a k-ary fat tree. The paper's 3-tier fabric
// (§6.2) is k=8 with 4 hosts per edge: 16 cores, 32 aggs, 32 edges,
// 128 hosts, 16 hosts per pod.
type FatTreeConfig struct {
	K            int // even arity
	HostsPerEdge int // defaults to K/2
	Rate         units.BitRate
	Prop         units.Duration
}

// DefaultFatTree returns the paper's 8-ary fat tree.
func DefaultFatTree() FatTreeConfig {
	return FatTreeConfig{K: 8, HostsPerEdge: 4, Rate: 100 * units.Gbps, Prop: 600 * units.Nanosecond}
}

// FatTree16 returns a k=16 fat tree: 16 pods × 8 edges × 8 hosts =
// 1024 hosts, 320 switches. Small enough that the dense BFS table is
// still buildable, which makes it the benchmark point for the
// structural-vs-dense route-memory ratio.
func FatTree16() FatTreeConfig {
	return FatTreeConfig{K: 16, Rate: 100 * units.Gbps, Prop: 600 * units.Nanosecond}
}

// FatTree32 returns a k=32 fat tree: 32 pods × 16 edges × 16 hosts =
// 8192 hosts, 1280 switches. The dense table here would already be
// ~2 GB of slice headers; only the structural router makes it cheap.
func FatTree32() FatTreeConfig {
	return FatTreeConfig{K: 32, Rate: 100 * units.Gbps, Prop: 600 * units.Nanosecond}
}

// Build constructs the fat tree: K pods of K/2 edge and K/2 agg
// switches; (K/2)^2 cores. Core c connects to agg (c / (K/2)) in each
// pod. Edges are ToR-layer, aggs Agg-layer.
func (c FatTreeConfig) Build() *Topology {
	if c.K <= 0 || c.K%2 != 0 {
		panic("topo: fat tree arity must be positive and even")
	}
	half := c.K / 2
	hpe := c.HostsPerEdge
	if hpe == 0 {
		hpe = half
	}
	b := newBuilder(half*half+c.K*(half+half*(1+hpe)), c.K*half*hpe, c.K*half*(2*half+hpe))
	cores := make([]packet.NodeID, half*half)
	for i := range cores {
		cores[i] = b.addNode(SwitchNode, LayerCore, -1, -1, c.K)
	}
	rack := 0
	for pod := 0; pod < c.K; pod++ {
		aggs := make([]packet.NodeID, half)
		for a := 0; a < half; a++ {
			aggs[a] = b.addNode(SwitchNode, LayerAgg, pod, -1, c.K)
			for i := 0; i < half; i++ {
				b.connect(aggs[a], cores[a*half+i], c.Rate, c.Prop, ClassAggUp, ClassCore)
			}
		}
		for e := 0; e < half; e++ {
			edge := b.addNode(SwitchNode, LayerToR, pod, rack, half+hpe)
			for _, a := range aggs {
				b.connect(edge, a, c.Rate, c.Prop, ClassToRUp, ClassAggDown)
			}
			for h := 0; h < hpe; h++ {
				host := b.addNode(HostNode, LayerHost, pod, rack, 1)
				b.connect(edge, host, c.Rate, c.Prop, ClassToRDown, ClassHost)
			}
			rack++
		}
	}
	return b.freeze()
}

// ClosConfig describes a multi-pod 3-tier Clos at datacenter scale:
// Pods pods, each with AggsPerPod aggregation switches, ToRsPerPod
// ToRs and HostsPerToR hosts per ToR. The spine layer is organised
// in AggsPerPod planes of SpinesPerPlane spines; aggregation switch
// a of every pod connects to every spine of plane a, so each spine
// has exactly one down port per pod — the regular shape structural
// routing compresses to O(total ports). Unlike the k-ary fat tree,
// the four dimensions scale independently, which is what reaches
// 100k+ hosts without inflating the switch radix cubically.
type ClosConfig struct {
	Pods           int
	AggsPerPod     int // uplink planes per pod
	SpinesPerPlane int // spines in each plane
	ToRsPerPod     int
	HostsPerToR    int
	HostRate       units.BitRate
	FabricRate     units.BitRate // ToR-agg and agg-spine links
	Prop           units.Duration
}

// DefaultClos returns a small 4-pod Clos (128 hosts) — the smoke and
// equivalence-test size.
func DefaultClos() ClosConfig {
	return ClosConfig{
		Pods: 4, AggsPerPod: 2, SpinesPerPlane: 2, ToRsPerPod: 4, HostsPerToR: 8,
		HostRate: 100 * units.Gbps, FabricRate: 400 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}
}

// Clos100k returns the datacenter-scale preset: 32 pods × 40 ToRs ×
// 80 hosts = 102,400 hosts and 1,472 switches. The dense route table
// here would need ~250 TB of slice headers; the structural router
// needs ~2.5 MB.
func Clos100k() ClosConfig {
	return ClosConfig{
		Pods: 32, AggsPerPod: 4, SpinesPerPlane: 16, ToRsPerPod: 40, HostsPerToR: 80,
		HostRate: 100 * units.Gbps, FabricRate: 400 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}
}

// NumHosts returns the host count the config will build.
func (c ClosConfig) NumHosts() int { return c.Pods * c.ToRsPerPod * c.HostsPerToR }

// Build constructs the multi-pod Clos. Spines are created first
// (plane-major), then pods in order: each pod's aggs connect up to
// their plane's spines before any ToR attaches, and each ToR
// connects up to every agg before its hosts — keeping every switch's
// up ports a contiguous prefix and every down-port sequence aligned
// with ascending dense host ranges, the layout structural-routing
// inference verifies at freeze().
func (c ClosConfig) Build() *Topology {
	if c.Pods <= 0 || c.AggsPerPod <= 0 || c.SpinesPerPlane <= 0 || c.ToRsPerPod <= 0 || c.HostsPerToR <= 0 {
		panic("topo: clos dimensions must be positive")
	}
	b := newBuilder(c.AggsPerPod*c.SpinesPerPlane+c.Pods*(c.AggsPerPod+c.ToRsPerPod*(1+c.HostsPerToR)), c.NumHosts(),
		c.Pods*(c.AggsPerPod*c.SpinesPerPlane+c.ToRsPerPod*(c.AggsPerPod+c.HostsPerToR)))
	spines := make([]packet.NodeID, c.AggsPerPod*c.SpinesPerPlane)
	for a := 0; a < c.AggsPerPod; a++ {
		for j := 0; j < c.SpinesPerPlane; j++ {
			spines[a*c.SpinesPerPlane+j] = b.addNode(SwitchNode, LayerCore, -1, -1, c.Pods)
		}
	}
	rack := 0
	for pod := 0; pod < c.Pods; pod++ {
		aggs := make([]packet.NodeID, c.AggsPerPod)
		for a := 0; a < c.AggsPerPod; a++ {
			aggs[a] = b.addNode(SwitchNode, LayerAgg, pod, -1, c.SpinesPerPlane+c.ToRsPerPod)
			for j := 0; j < c.SpinesPerPlane; j++ {
				b.connect(aggs[a], spines[a*c.SpinesPerPlane+j], c.FabricRate, c.Prop, ClassAggUp, ClassCore)
			}
		}
		for tr := 0; tr < c.ToRsPerPod; tr++ {
			tor := b.addNode(SwitchNode, LayerToR, pod, rack, c.AggsPerPod+c.HostsPerToR)
			for _, a := range aggs {
				b.connect(tor, a, c.FabricRate, c.Prop, ClassToRUp, ClassAggDown)
			}
			for h := 0; h < c.HostsPerToR; h++ {
				host := b.addNode(HostNode, LayerHost, pod, rack, 1)
				b.connect(tor, host, c.HostRate, c.Prop, ClassToRDown, ClassHost)
			}
			rack++
		}
	}
	return b.freeze()
}

// TestbedConfig mirrors the paper's §5.2 DPDK testbed: one core
// switch, three ToRs with two hosts each, 10 Gbps host links and
// 20 Gbps uplinks, base BDP 45 KB (software-switch latency dominates,
// modelled as 4.5 µs per-hop propagation).
type TestbedConfig struct {
	ToRs        int
	HostsPerToR int
	HostRate    units.BitRate
	CoreRate    units.BitRate
	Prop        units.Duration
}

// DefaultTestbed returns the §5.2 testbed.
func DefaultTestbed() TestbedConfig {
	return TestbedConfig{
		ToRs:        3,
		HostsPerToR: 2,
		HostRate:    10 * units.Gbps,
		CoreRate:    20 * units.Gbps,
		Prop:        4500 * units.Nanosecond,
	}
}

// Build constructs the testbed star-of-ToRs topology: a two-tier Clos
// with one core, so it routes structurally like every other builder.
func (c TestbedConfig) Build() *Topology {
	b := newBuilder(1+c.ToRs*(1+c.HostsPerToR), c.ToRs*c.HostsPerToR, c.ToRs*(1+c.HostsPerToR))
	core := b.addNode(SwitchNode, LayerCore, -1, -1, c.ToRs)
	for r := 0; r < c.ToRs; r++ {
		tor := b.addNode(SwitchNode, LayerToR, r, r, 1+c.HostsPerToR)
		b.connect(tor, core, c.CoreRate, c.Prop, ClassToRUp, ClassCore)
		for h := 0; h < c.HostsPerToR; h++ {
			host := b.addNode(HostNode, LayerHost, r, r, 1)
			b.connect(tor, host, c.HostRate, c.Prop, ClassToRDown, ClassHost)
		}
	}
	return b.freeze()
}
