package core_test

import (
	"fmt"
	"strings"
	"testing"

	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// These tests pin individual Floodgate mechanisms (§4) rather than
// end-to-end outcomes.

func TestWindowInitValues(t *testing.T) {
	// Practical: BDP_nextHop + C_out·T; ideal: m × BDP_nextHop (§4.2).
	fg := core.DefaultConfig(14 * units.KB)
	fg.CreditTimer = 10 * units.Microsecond
	n, cfg := testNet(2, &fg)
	tor := n.Switches[cfg.Topo.Node(cfg.Topo.Hosts[0]).Ports[0].Peer]
	m := tor.FC().(*core.Module)

	// Send one packet cross-rack to force window creation at the ToR.
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], units.KB, 0, packet.CatIncast)
	n.Run(units.Time(5 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	avail, ok := m.Window(cfg.Topo.Hosts[5])
	if !ok {
		t.Fatal("no window created for the destination")
	}
	// Uplink: 40Gbps, prop 600ns -> BDP = 40G*1.2us + MTU = 7.5KB total;
	// plus 40G * 10us = 50KB. After the flow drains, avail == init.
	var up *topo.Port
	node := tor.Node()
	for i := range node.Ports {
		if node.Ports[i].Class == topo.ClassToRUp {
			up = &node.Ports[i]
			break
		}
	}
	wantInit := up.BDP() + units.BytesOver(up.Rate, fg.CreditTimer)
	if avail != wantInit {
		t.Fatalf("settled window = %v, want init %v", avail, wantInit)
	}
}

func TestIdealWindowInit(t *testing.T) {
	fg := core.IdealConfig(14 * units.KB)
	fg.PerDstPause = false
	n, cfg := testNet(2, &fg)
	tor := n.Switches[cfg.Topo.Node(cfg.Topo.Hosts[0]).Ports[0].Peer]
	m := tor.FC().(*core.Module)
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], units.KB, 0, packet.CatIncast)
	n.Run(units.Time(5 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	avail, _ := m.Window(cfg.Topo.Hosts[5])
	var up *topo.Port
	node := tor.Node()
	for i := range node.Ports {
		if node.Ports[i].Class == topo.ClassToRUp {
			up = &node.Ports[i]
			break
		}
	}
	want := units.ByteSize(1.5 * float64(up.BDP()))
	if avail != want {
		t.Fatalf("ideal window = %v, want %v", avail, want)
	}
}

func TestNoWindowForSameRackTraffic(t *testing.T) {
	// Last-hop forwarding must not create windows (§3.2): the ToR's
	// egress faces the host.
	n, cfg := testNet(2, fgDefault())
	tor := n.Switches[cfg.Topo.Node(cfg.Topo.Hosts[0]).Ports[0].Peer]
	m := tor.FC().(*core.Module)
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[1], 50*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(5 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	if _, ok := m.Window(cfg.Topo.Hosts[1]); ok {
		t.Fatal("same-rack destination acquired a window")
	}
}

func TestCreditAggregationReducesPacketCount(t *testing.T) {
	// With T large, far fewer credit packets than data packets.
	fg := fgDefault()
	fg.CreditTimer = 100 * units.Microsecond
	n, cfg := testNet(4, fg)
	flows := addIncast(n, cfg.Topo, 8, 100*units.KB)
	n.Run(units.Time(100 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow incomplete")
		}
	}
	creditBytes := n.Stats.WireTotal(stats.WireCredit)
	creditPkts := int64(creditBytes / packet.CtrlSize)
	dataPkts := int64(n.Stats.WireTotal(stats.WireData) / packet.MTU)
	if creditPkts*5 > dataPkts {
		t.Fatalf("aggregation too weak: %d credit pkts vs %d data pkts", creditPkts, dataPkts)
	}
}

func TestDelayCreditWithholdsUnderDeepVOQ(t *testing.T) {
	// With thre_credit tiny, credits for a backed-up destination are
	// retained, slowing the upstream — ToR-Up (upstream of the spine)
	// should hold more bytes than with a huge threshold.
	run := func(thresh units.ByteSize) units.ByteSize {
		fg := fgDefault()
		fg.DelayCreditThresh = thresh
		n, cfg := testNet(12, fg)
		flows := addIncast(n, cfg.Topo, 24, 100*units.KB)
		n.Run(units.Time(200 * units.Millisecond))
		for _, f := range flows {
			if !f.Done() {
				t.Fatal("flow incomplete")
			}
		}
		return n.Stats.MaxClassBuffer(topo.ClassCore)
	}
	tight := run(2 * units.KB)
	loose := run(100 * 14 * units.KB)
	if tight > loose {
		t.Fatalf("tight delayCredit should not grow core buffer: %v vs %v", tight, loose)
	}
}

func TestVOQGroupingSplitsPool(t *testing.T) {
	c := topo.FatTree(4)
	c.HostRate, c.FabricRate = 10*units.Gbps, 10*units.Gbps
	tp := c.Build()
	fg := core.DefaultConfig(14 * units.KB)
	fg.MaxVOQs = 10
	fg.VOQGrouping = true
	cfg := device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		Seed:  1,
		FC:    core.New(fg),
	}
	n := device.New(cfg)
	// An aggregation switch should report grouping; edges should not.
	for _, sw := range n.Switches {
		if sw == nil {
			continue
		}
		m := sw.FC().(*core.Module)
		if sw.Node().Layer == topo.LayerAgg {
			if !m.Grouped() {
				t.Fatalf("agg %s not grouped", sw.Node().Name())
			}
		} else if m.Grouped() {
			t.Fatalf("%s (layer %v) grouped but should not be", sw.Node().Name(), sw.Node().Layer)
		}
	}
}

// TestGroupedPoolNeedsTwoVOQs: a grouped aggregation switch splits its
// pool in two, so a pool under 2 leaves group 0 without a VOQ; the
// module factory rejects it, naming the fields, instead of letting
// hashVOQ borrow a VOQ the group does not own.
func TestGroupedPoolNeedsTwoVOQs(t *testing.T) {
	for _, tc := range []struct {
		voqs     int
		grouping bool
		panics   bool
	}{
		{1, true, true},
		{0, true, true},
		{2, true, false},
		{1, false, false},
	} {
		c := topo.FatTree(4)
		fg := core.DefaultConfig(14 * units.KB)
		fg.MaxVOQs, fg.VOQGrouping = tc.voqs, tc.grouping
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			device.New(device.Config{Topo: c.Build(), Engine: sim.NewEngine(), FC: core.New(fg)})
			return ""
		}()
		if !tc.panics {
			if msg != "" {
				t.Errorf("MaxVOQs %d, grouping %v: unexpected panic %q", tc.voqs, tc.grouping, msg)
			}
			continue
		}
		if !strings.Contains(msg, "core.Config.MaxVOQs") || !strings.Contains(msg, "VOQGrouping") {
			t.Errorf("MaxVOQs %d, grouping %v: panic %q does not name core.Config.MaxVOQs and VOQGrouping", tc.voqs, tc.grouping, msg)
		}
	}
}

func TestQueueSignalOverrideForVOQPackets(t *testing.T) {
	// Packets that sat in a VOQ report the VOQ sum (§8) so INT/ECN see
	// the real buffering. Exercised via HPCC+Floodgate completing with
	// shrunken windows.
	fg := fgDefault()
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: 12,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	cfg := device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		Seed:  1,
		PFC:   true,
		INT:   true,
		FC:    core.New(*fg),
	}
	n := device.New(cfg)
	flows := addIncast(n, tp, 24, 100*units.KB)
	n.Run(units.Time(200 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow incomplete with INT enabled")
		}
	}
}

func TestSwitchSYNDoesNotFireSpuriously(t *testing.T) {
	// A healthy lossless incast should resolve through credits alone;
	// SYNs exist but must not dominate credit traffic.
	fg := fgDefault()
	fg.SYNTimeout = 10 * units.Millisecond // far beyond the run's RTTs
	n, cfg := testNet(8, fg)
	flows := addIncast(n, cfg.Topo, 16, 60*units.KB)
	n.Run(units.Time(100 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow incomplete")
		}
	}
}

func TestPerDstPauseDoesNotAffectOtherDsts(t *testing.T) {
	fg := core.IdealConfig(14 * units.KB)
	fg.PauseThreshOff = 3 * units.KB
	fg.PauseThreshOn = 1 * units.KB
	n, cfg := testNet(8, &fg)
	tpo := cfg.Topo
	// Incast to the last host; a bystander flow from the same source
	// rack to a different destination must be unaffected.
	flows := addIncast(n, tpo, 16, 100*units.KB)
	by := n.AddFlow(tpo.Hosts[0], tpo.Hosts[9], 100*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(200 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("incast flow incomplete")
		}
	}
	if !by.Done() {
		t.Fatal("bystander flow blocked by per-dst pause of a different destination")
	}
}
