package core

import (
	"testing"

	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// TestPagedTable pins paged's layout: the first destination touched
// lives inline, a second mints its page, entries never move as later
// ones arrive, a never-touched destination off every minted page reads
// nil, and clear empties the inline entry and the pages alike.
func TestPagedTable(t *testing.T) {
	tabs := make([]paged[downChan], 1) // as a downPort's chans, which Restart zeroes
	tb := &tabs[0]
	if tb.get(0) != nil || tb.get(700) != nil {
		t.Fatal("an empty table returned an entry")
	}

	a := tb.at(700)
	if a != &tb.first || tb.pages != nil {
		t.Fatalf("first destination not inline (%d pages)", len(tb.pages))
	}
	a.cumFwd = 1
	b := tb.at(3)
	if b == &tb.first || len(tb.pages) != 1 || tb.pages[0] == nil {
		t.Fatalf("second destination not on page 0 (%d pages)", len(tb.pages))
	}
	b.cumFwd = 2
	for _, d := range []packet.NodeID{0, 4, 255, 256, 5000} { // 5000 grows the root
		tb.at(d).cumFwd = units.ByteSize(10 + d)
	}
	if tb.at(700) != a || tb.get(700) != a || tb.at(3) != b || tb.get(3) != b {
		t.Fatal("an entry moved when later destinations arrived")
	}
	if a.cumFwd != 1 || b.cumFwd != 2 || tb.get(0).cumFwd != 10 || tb.get(5000).cumFwd != 5010 {
		t.Fatal("an entry lost its value when later destinations arrived")
	}
	if tb.get(1000) != nil {
		t.Fatal("a destination on a never-minted page is not nil")
	}
	if e := tb.get(5); e == nil || *e != (downChan{}) {
		t.Fatalf("an untouched destination on a minted page reads %v, want a zero entry", e)
	}

	clear(tabs)
	for _, d := range []packet.NodeID{700, 3, 0, 5000} {
		if tb.get(d) != nil {
			t.Fatalf("destination %d survived clear", d)
		}
	}
	if tb.at(3) != &tb.first {
		t.Fatal("after clear the next destination does not take the inline slot")
	}
	if tb.get(2) != nil {
		t.Fatal("destination 2 reads the inline entry of destination 3")
	}
}

// TestCreditedPortsNeedSwitchPortsFirst pins the port layout Module.down
// relies on: switch-facing ports come first, so a port faces a host
// exactly when its index is past them, and a switch-facing port behind a
// host-facing one panics instead of being windowed as a last hop.
func TestCreditedPortsNeedSwitchPortsFirst(t *testing.T) {
	if got := creditedPorts(5, func(i int) bool { return i >= 2 }); got != 2 {
		t.Fatalf("two uplinks, three hosts: %d credited ports, want 2", got)
	}
	if got := creditedPorts(3, func(int) bool { return false }); got != 3 {
		t.Fatalf("all switch-facing: %d credited ports, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a switch-facing port behind a host-facing one did not panic")
		}
	}()
	creditedPorts(3, func(i int) bool { return i == 1 }) // switch, host, switch
}

// TestPortStateFollowsTouchedPorts is the per-port twin of
// TestStateFollowsActiveDestinations: after one flow through a Cluster,
// a switch holds a port record exactly where a frame was charged or
// queued — its data path's ingress and egress, and its ACKs' egress on
// the reverse path — and a Floodgate credit port exactly where data
// arrived from a switch.
func TestPortStateFollowsTouchedPorts(t *testing.T) {
	tp := topo.DefaultClos().Build()
	src, dst := tp.Hosts[3], tp.Hosts[len(tp.Hosts)-1] // different pods
	c := device.NewCluster(device.Config{Topo: tp, FC: New(DefaultConfig(64 * units.KB))},
		[]*sim.Engine{sim.NewEngine()}, nil)
	c.AddFlow(src, dst, 40*units.KB, 0, packet.CatIncast)
	c.SealFlows()
	n := c.Nets[0]
	n.Run(units.Time(units.Millisecond))
	if got := c.DeliveredBytes(); got != 40*units.KB {
		t.Fatalf("delivered %v of the flow's %v", got, 40*units.KB)
	}

	type port struct {
		node packet.NodeID
		i    int
	}
	ports, credited := map[port]bool{}, map[port]bool{}
	// walk follows from's frames to `to`, marking each switch's egress
	// and, for data, its ingress (a credit port when it faces a switch).
	walk := func(from, to packet.NodeID, data bool) {
		in := -1
		for cur := from; cur != to; {
			out := tp.ECMP(cur, from, to)
			if tp.Node(cur).Kind == topo.SwitchNode {
				ports[port{cur, out}] = true
				if data {
					ports[port{cur, in}] = true
					if tp.Node(tp.Node(cur).Ports[in].Peer).Kind == topo.SwitchNode {
						credited[port{cur, in}] = true
					}
				}
			}
			p := tp.Node(cur).Ports[out]
			cur, in = p.Peer, int(p.PeerPort)
		}
	}
	walk(src, dst, true)
	walk(dst, src, false)

	if len(credited) == 0 {
		t.Fatal("the walk found no switch-facing ingress: the flow never crossed a switch-to-switch link")
	}
	for id, sw := range n.Switches {
		if sw == nil {
			continue
		}
		m := sw.FC().(*Module)
		for i := range tp.Nodes[id].Ports {
			at := port{packet.NodeID(id), i}
			if sw.PortMinted(i) != ports[at] {
				t.Errorf("%s port %d: minted %v, on the flow's path %v", tp.Nodes[id].Name(), i, sw.PortMinted(i), ports[at])
			}
			if i < len(m.down) && (m.down[i] != nil) != credited[at] {
				t.Errorf("%s port %d: credit state minted %v, credited %v", tp.Nodes[id].Name(), i, m.down[i] != nil, credited[at])
			}
		}
	}
}
