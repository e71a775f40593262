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

// tagNet builds a small leaf-spine under PFC w/ tag at the given pause
// threshold; a zero threshold builds the same fabric under plain PFC.
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
	}
	if thresh > 0 {
		cfg.FC = pfctag.New(pfctag.Config{PauseThresh: thresh})
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

// TestTagBoundsLastHop runs a 16→1 incast under the tag and under plain
// PFC. The tag must hold the last hop's buffer below plain PFC's, and
// must not idle the destination's link doing it: the last hop resumes
// its upstreams once its egress backlog falls to half the pause
// threshold, so the backlog left covers the resume's round trip and the
// incast ends within one frame time of plain PFC's. Resuming only at an
// empty egress ends it about 4 µs later.
func TestTagBoundsLastHop(t *testing.T) {
	run := func(thresh units.ByteSize) (units.ByteSize, units.Time) {
		n, tp := tagNet(thresh)
		dst := tp.Hosts[len(tp.Hosts)-1]
		for i := 0; i < 16; i++ {
			n.AddFlow(tp.Hosts[i], dst, 100*units.KB, 0, packet.CatIncast)
		}
		n.Run(units.Time(500 * units.Millisecond))
		var end units.Time
		for _, f := range n.Flows() {
			if !f.Done() {
				t.Fatal("flow incomplete")
			}
			end = max(end, f.Finish)
		}
		return n.Stats.MaxClassBuffer(topo.ClassToRDown), end
	}
	with, withEnd := run(10 * packet.MTU)
	without, withoutEnd := run(0)
	if with >= without {
		t.Fatalf("PFC w/ tag did not bound the last hop: %v vs %v", with, without)
	}
	if withEnd > withoutEnd.Add(units.TxTime(packet.MTU, 10*units.Gbps)) {
		t.Fatalf("the incast ends at %v under the tag, %v under plain PFC: the last hop idled", withEnd, withoutEnd)
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
