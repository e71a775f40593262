package pfctag_test

import (
	"testing"

	"floodgate/internal/cc"
	"floodgate/internal/device"
	"floodgate/internal/fault"
	"floodgate/internal/metrics"
	"floodgate/internal/packet"
	"floodgate/internal/pfctag"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

func tagNet(thresh units.ByteSize) (*device.Network, *topo.Topology) {
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: 8,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	cfg := device.Config{
		Topo:    tp,
		Engine:  sim.NewEngine(),
		Stats:   stats.NewCollector(10 * units.Microsecond),
		Seed:    5,
		PFC:     true,
		CC:      cc.NewFixedWindow(),
		Metrics: device.NewNetMetrics(metrics.NewRegistry()),
		FC:      pfctag.New(pfctag.Config{PauseThresh: thresh}),
	}
	return device.New(cfg), tp
}

func TestTagIncastCompletes(t *testing.T) {
	n, tp := tagNet(20 * packet.MTU)
	dst := tp.Hosts[len(tp.Hosts)-1]
	var flows []*device.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], dst, 100*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(500 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete under PFC w/ tag", i)
		}
	}
	if n.Stats.Drops != 0 {
		t.Fatalf("drops: %d", n.Stats.Drops)
	}
}

// TestTagRestartReleasesParked restarts every switch every 20 µs through
// a 16→1 incast: the packets parked at each restart must leave the
// switch's books with it (a module rebuilt from its factory would lose
// them), so the drained run holds zero queued or parked bytes.
func TestTagRestartReleasesParked(t *testing.T) {
	n, tp := tagNet(4 * packet.MTU)
	dst := tp.Hosts[len(tp.Hosts)-1]
	for i := 0; i < 16; i++ {
		n.AddFlow(tp.Hosts[i], dst, 200*units.KB, 0, packet.CatIncast)
	}
	var plan fault.Plan
	for at := 20 * units.Microsecond; at <= 400*units.Microsecond; at += 20 * units.Microsecond {
		for _, node := range tp.Nodes {
			if node.Kind == topo.SwitchNode {
				plan.Events = append(plan.Events, fault.Event{At: units.Time(at), Kind: fault.SwitchRestart, Node: node.ID})
			}
		}
	}
	n.InstallFaults(&plan, 1)
	n.Run(units.Time(500 * units.Millisecond))
	for i, f := range n.Flows() {
		if !f.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
	}
	if n.Stats.Drops == 0 {
		t.Fatal("no restart caught a parked or queued packet")
	}
	for c := topo.PortClass(0); c < topo.NumPortClasses; c++ {
		if b := n.Metrics.QueuedBytes[c].Value(); b != 0 {
			t.Errorf("%v ports hold %d bytes after the run drained", c, b)
		}
	}
}

func TestTagBoundsLastHop(t *testing.T) {
	run := func(withTag bool) units.ByteSize {
		var n *device.Network
		var tp *topo.Topology
		if withTag {
			n, tp = tagNet(10 * packet.MTU)
		} else {
			tp = topo.LeafSpineConfig{
				Spines: 2, ToRs: 3, HostsPerToR: 8,
				HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
				Prop: 600 * units.Nanosecond,
			}.Build()
			n = device.New(device.Config{
				Topo: tp, Engine: sim.NewEngine(),
				Stats: stats.NewCollector(10 * units.Microsecond),
				Seed:  5,
				PFC:   true,
				CC:    cc.NewFixedWindow(),
			})
		}
		dst := tp.Hosts[len(tp.Hosts)-1]
		var flows []*device.Flow
		for i := 0; i < 16; i++ {
			flows = append(flows, n.AddFlow(tp.Hosts[i], dst, 100*units.KB, 0, packet.CatIncast))
		}
		n.Run(units.Time(500 * units.Millisecond))
		for _, f := range flows {
			if !f.Done() {
				t.Fatal("flow incomplete")
			}
		}
		return n.Stats.MaxClassBuffer(topo.ClassToRDown)
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("PFC w/ tag did not bound the last hop: %v vs %v", with, without)
	}
}

func TestTagUsesManyVOQs(t *testing.T) {
	// The paper's Appendix B point: the reactive scheme parks many more
	// destinations than Floodgate's proactive window does. Two parallel
	// incasts with small thresholds should occupy at least two VOQs, and
	// cascade their pauses back to the source hosts.
	n, tp := tagNet(4 * packet.MTU)
	d1 := tp.Hosts[len(tp.Hosts)-1]
	d2 := tp.Hosts[len(tp.Hosts)-2]
	var flows []*device.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], d1, 80*units.KB, 0, packet.CatIncast))
		flows = append(flows, n.AddFlow(tp.Hosts[8+i], d2, 80*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(500 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
	}
	if n.Stats.MaxVOQInUse < 2 {
		t.Fatalf("expected >=2 VOQs in use, got %d", n.Stats.MaxVOQInUse)
	}
	// The cascade's last level holds source hosts per destination.
	if n.Metrics.HostPausedDsts.Max() == 0 {
		t.Fatal("no source host was paused for a destination")
	}
}

func TestTagNonIncastUnaffected(t *testing.T) {
	n, tp := tagNet(20 * packet.MTU)
	f := n.AddFlow(tp.Hosts[0], tp.Hosts[10], 200*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(100 * units.Millisecond))
	if !f.Done() {
		t.Fatal("lone flow incomplete")
	}
	if n.Stats.MaxVOQInUse != 0 {
		t.Fatalf("lone flow parked in a VOQ (%d)", n.Stats.MaxVOQInUse)
	}
}
