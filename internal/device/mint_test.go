package device

import (
	"testing"

	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// mintedSet returns the nodes that have a device on any shard, failing
// if a shard built one it does not own or one of the wrong kind.
func mintedSet(t *testing.T, c *Cluster) map[packet.NodeID]bool {
	t.Helper()
	got := map[packet.NodeID]bool{}
	for si, n := range c.Nets {
		for _, node := range c.Topo.Nodes {
			sw, h := n.Switches[node.ID] != nil, n.HostsByID[node.ID] != nil
			if !sw && !h {
				continue
			}
			if !n.Owns(node.ID) || sw != (node.Kind == topo.SwitchNode) {
				t.Fatalf("shard %d holds a device for %s, which it does not own or of the wrong kind", si, node.Name())
			}
			got[node.ID] = true
		}
	}
	return got
}

// runCluster advances every shard in lookahead windows, exchanging
// frames at each boundary, as the sharded executor does.
func runCluster(c *Cluster, until units.Time) {
	look := topo.Lookahead(c.Topo)
	for t := units.Time(0); t < until; {
		t = t.Add(look)
		for _, n := range c.Nets {
			n.Eng.Run(t)
		}
		c.ExchangeFrames()
	}
}

// TestStateFollowsTouchedDevices is the device-side twin of core's
// TestStateFollowsActiveDestinations: after an 8-way incast through a
// Cluster, the devices that exist are exactly the ones something
// touched — the flows' endpoints, every switch on the ECMP path of their
// data and of their ACKs, and the owners of links the partition cut —
// and nothing else of the 128-host fabric. The expected set is walked
// here from the topology, not read back from the code under test.
func TestStateFollowsTouchedDevices(t *testing.T) {
	tp := topo.DefaultClos().Build()
	dst := tp.Hosts[len(tp.Hosts)-1]
	var srcs []packet.NodeID
	for i := 0; i < 8; i++ {
		srcs = append(srcs, tp.Hosts[i*11]) // pods 0..2, never dst's rack
	}
	const size = 40 * units.KB
	for _, k := range []int{1, 2} {
		assign := topo.Partition(tp, k)
		engines := make([]*sim.Engine, k)
		for i := range engines {
			engines[i] = sim.NewEngine()
		}
		c := NewCluster(Config{Topo: tp, PFC: true}, engines, assign)

		want := map[packet.NodeID]bool{}
		for _, node := range tp.Nodes {
			for _, p := range node.Ports {
				if assign != nil && assign[node.ID] != assign[p.Peer] {
					want[node.ID] = true
				}
			}
		}
		if got := mintedSet(t, c); len(got) != len(want) {
			t.Fatalf("shards=%d: %d devices before any registration, want the %d cut-link owners", k, len(got), len(want))
		}
		walk := func(from, to packet.NodeID) {
			want[from] = true
			for cur := from; cur != to; {
				cur = tp.Node(cur).Ports[tp.ECMP(cur, from, to)].Peer
				want[cur] = true
			}
		}
		for _, src := range srcs {
			c.AddFlow(src, dst, size, 0, packet.CatIncast)
			walk(src, dst)
			walk(dst, src)
		}
		c.SealFlows()
		runCluster(c, units.Time(2*units.Millisecond))
		if got := c.DeliveredBytes(); got != units.ByteSize(len(srcs))*size {
			t.Fatalf("shards=%d: delivered %v of %v", k, got, units.ByteSize(len(srcs))*size)
		}

		got := mintedSet(t, c)
		for id := range want {
			if !got[id] {
				t.Errorf("shards=%d: %s was touched but has no device", k, tp.Node(id).Name())
			}
		}
		for id := range got {
			if !want[id] {
				t.Errorf("shards=%d: %s has a device but nothing touched it", k, tp.Node(id).Name())
			}
		}
		if k == 1 && len(got) >= len(tp.Nodes)/2 {
			t.Errorf("an 8-way incast minted %d of %d devices: the test no longer shows laziness", len(got), len(tp.Nodes))
		}
	}
}

// TestFaultPlanMintsWhatItNames: installing a plan mints the owned
// devices it names — restart targets with their neighbours, both ends of
// a flapped link — so a restart of a switch no frame ever reaches runs
// the full teardown and is counted, exactly as on an eager network.
func TestFaultPlanMintsWhatItNames(t *testing.T) {
	tp := topo.DefaultClos().Build()
	idle := tp.Node(tp.Hosts[0]).Ports[0].Peer // pod 0's first ToR: no flow below
	var agg packet.NodeID = -1
	for _, p := range tp.Node(idle).Ports {
		if tp.Node(p.Peer).Kind == topo.SwitchNode {
			agg = p.Peer
			break
		}
	}
	plan := &fault.Plan{Events: []fault.Event{
		{At: units.Time(10 * units.Microsecond), Kind: fault.SwitchRestart, Node: idle},
		{At: units.Time(20 * units.Microsecond), Kind: fault.LinkDown, Link: fault.Link{A: idle, B: agg}},
		{At: units.Time(30 * units.Microsecond), Kind: fault.LinkUp, Link: fault.Link{A: idle, B: agg}},
	}}
	run := func(eager bool) (FaultStats, int, units.ByteSize) {
		c := NewCluster(Config{Topo: tp}, []*sim.Engine{sim.NewEngine()}, make([]int, len(tp.Nodes)))
		if eager {
			c.Nets[0].MintAll()
		}
		c.InstallFaults(plan, 1)
		c.AddFlow(tp.Hosts[100], tp.Hosts[127], 20*units.KB, 0, packet.CatIncast)
		c.SealFlows()
		runCluster(c, units.Time(units.Millisecond))
		return c.FaultStats(), len(mintedSet(t, c)), c.DeliveredBytes()
	}
	lazy, minted, delivered := run(false)
	eager, all, _ := run(true)
	if lazy != eager || lazy.Restarts != 1 || lazy.LinkEvents != 2 {
		t.Fatalf("fault stats lazy %+v, eager %+v; want one restart and two link events on both", lazy, eager)
	}
	if delivered != 20*units.KB {
		t.Fatalf("delivered %v, want the whole flow", delivered)
	}
	// The idle ToR, its 8 hosts and 2 aggs, plus the flow's own path.
	if named := 1 + len(tp.Node(idle).Ports); minted < named || minted >= all/2 {
		t.Fatalf("lazy run minted %d devices; want at least the %d the plan names and far fewer than all %d", minted, named, all)
	}
}
