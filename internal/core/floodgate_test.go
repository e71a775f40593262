package core_test

import (
	"testing"

	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// testNet builds a leaf-spine with the given rack width, optionally
// installing Floodgate.
func testNet(hostsPerToR int, fgCfg *core.Config) (*device.Network, device.Config) {
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: hostsPerToR,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	cfg := device.Config{
		Topo:   tp,
		Engine: sim.NewEngine(),
		Stats:  stats.NewCollector(10 * units.Microsecond),
		Seed:   7,
		PFC:    true,
	}
	if fgCfg != nil {
		cfg.FC = core.New(*fgCfg)
	}
	return device.New(cfg), cfg
}

// uniformLoss drops data, credit and switchSYN frames with probability
// p on every switch-to-switch link: a Gilbert–Elliott chain that never
// leaves its Good state.
func uniformLoss(p float64) *fault.Plan {
	return &fault.Plan{Burst: &fault.GilbertElliott{LossGood: p}}
}

func fgDefault() *core.Config {
	c := core.DefaultConfig(14 * units.KB) // ~base BDP of the test fabric
	return &c
}

func TestSingleFlowUnaffected(t *testing.T) {
	// A lone flow must never be identified as incast: no VOQ, same FCT
	// ballpark as without Floodgate.
	nFG, cfgFG := testNet(2, fgDefault())
	fFG := nFG.AddFlow(cfgFG.Topo.Hosts[0], cfgFG.Topo.Hosts[5], 200*units.KB, 0, packet.CatVictimPFC)
	nFG.Run(units.Time(20 * units.Millisecond))

	nPlain, cfgPlain := testNet(2, nil)
	fPlain := nPlain.AddFlow(cfgPlain.Topo.Hosts[0], cfgPlain.Topo.Hosts[5], 200*units.KB, 0, packet.CatVictimPFC)
	nPlain.Run(units.Time(20 * units.Millisecond))

	if !fFG.Done() || !fPlain.Done() {
		t.Fatal("flows incomplete")
	}
	if nFG.Stats.MaxVOQInUse != 0 {
		t.Fatalf("lone flow allocated %d VOQs; want 0", nFG.Stats.MaxVOQInUse)
	}
	// Floodgate adds only credit overhead; allow 10% slack.
	if float64(fFG.FCT()) > 1.1*float64(fPlain.FCT()) {
		t.Fatalf("Floodgate slowed a lone flow: %v vs %v", fFG.FCT(), fPlain.FCT())
	}
}

func addIncast(n *device.Network, tp *topo.Topology, senders int, size units.ByteSize) []*device.Flow {
	dst := tp.Hosts[len(tp.Hosts)-1]
	var flows []*device.Flow
	for i := 0; i < senders; i++ {
		src := tp.Hosts[i]
		flows = append(flows, n.AddFlow(src, dst, size, 0, packet.CatIncast))
	}
	return flows
}

func TestIncastIdentifiedAndIsolated(t *testing.T) {
	n, cfg := testNet(12, fgDefault())
	flows := addIncast(n, cfg.Topo, 24, 100*units.KB)
	n.Run(units.Time(50 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("incast flow %d incomplete", i)
		}
	}
	if n.Stats.MaxVOQInUse == 0 {
		t.Fatal("a 24:1 incast was never identified (no VOQ allocated)")
	}
	if n.Stats.Drops != 0 {
		t.Fatalf("drops under Floodgate: %d", n.Stats.Drops)
	}
}

func TestFloodgateReducesLastHopBuffer(t *testing.T) {
	run := func(fg *core.Config) (units.ByteSize, units.ByteSize, units.ByteSize) {
		n, cfg := testNet(12, fg)
		flows := addIncast(n, cfg.Topo, 24, 100*units.KB)
		n.Run(units.Time(50 * units.Millisecond))
		for _, f := range flows {
			if !f.Done() {
				t.Fatal("flow incomplete")
			}
		}
		return n.Stats.MaxClassBuffer(topo.ClassToRDown),
			n.Stats.MaxClassBuffer(topo.ClassCore),
			n.Stats.MaxClassBuffer(topo.ClassToRUp)
	}
	downP, coreP, _ := run(nil)
	downF, coreF, upF := run(fgDefault())
	if downF >= downP {
		t.Fatalf("Floodgate did not reduce ToR-Down buffer: %v vs %v", downF, downP)
	}
	if coreF > coreP {
		t.Fatalf("Floodgate grew core buffer: %v vs %v", coreF, coreP)
	}
	// Incast is tamed at the source side: ToR-Up holds some of it.
	if upF == 0 {
		t.Fatal("Floodgate should hold incast bytes at the source ToRs")
	}
}

func TestIdealModeSmallerBuffers(t *testing.T) {
	run := func(fg core.Config) units.ByteSize {
		n, cfg := testNet(12, &fg)
		flows := addIncast(n, cfg.Topo, 24, 100*units.KB)
		n.Run(units.Time(100 * units.Millisecond))
		for _, f := range flows {
			if !f.Done() {
				t.Fatal("flow incomplete")
			}
		}
		return n.Stats.MaxClassBuffer(topo.ClassToRDown)
	}
	practical := run(core.DefaultConfig(14 * units.KB))
	ideal := run(core.IdealConfig(14 * units.KB))
	if ideal > practical {
		t.Fatalf("ideal last-hop buffer %v exceeds practical %v", ideal, practical)
	}
}

func TestWindowConservation(t *testing.T) {
	// After all traffic drains and credits settle, every window must
	// return to its initial value (no leak, no inflation).
	n, cfg := testNet(4, fgDefault())
	flows := addIncast(n, cfg.Topo, 8, 60*units.KB)
	n.Run(units.Time(100 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow incomplete")
		}
	}
	for _, sw := range n.Switches {
		if sw == nil {
			continue
		}
		m := sw.FC().(*core.Module)
		if leak := m.WindowDeficit(); leak != 0 {
			t.Fatalf("switch %s leaked %v of window after idle drain", sw.Node().Name(), leak)
		}
		if m.VOQsInUse() != 0 {
			t.Fatalf("switch %s still holds %d VOQs", sw.Node().Name(), m.VOQsInUse())
		}
	}
}

func TestCreditsCarryOverhead(t *testing.T) {
	n, cfg := testNet(4, fgDefault())
	addIncast(n, cfg.Topo, 8, 100*units.KB)
	n.Run(units.Time(20 * units.Millisecond))
	if n.Stats.WireTotal(stats.WireCredit) == 0 {
		t.Fatal("no credit bytes on the wire")
	}
	// Practical credits must be a small fraction of data bytes.
	cr := float64(n.Stats.WireTotal(stats.WireCredit))
	da := float64(n.Stats.WireTotal(stats.WireData))
	if cr > 0.05*da {
		t.Fatalf("credit overhead %.2f%% too high", 100*cr/da)
	}
}

func TestIdealCreditsCostMore(t *testing.T) {
	ratio := func(fg core.Config) float64 {
		n, cfg := testNet(4, &fg)
		flows := addIncast(n, cfg.Topo, 8, 100*units.KB)
		n.Run(units.Time(50 * units.Millisecond))
		for _, f := range flows {
			if !f.Done() {
				t.Fatal("flow incomplete")
			}
		}
		return float64(n.Stats.WireTotal(stats.WireCredit)) / float64(n.Stats.WireTotal(stats.WireData))
	}
	ideal := core.IdealConfig(14 * units.KB)
	ideal.PerDstPause = false // isolate the credit mechanism
	rIdeal := ratio(ideal)
	rPractical := ratio(core.DefaultConfig(14 * units.KB))
	if rIdeal <= rPractical {
		t.Fatalf("per-packet credits (%.4f) should cost more than aggregated (%.4f)", rIdeal, rPractical)
	}
}

func TestLossRecoveryViaPSN(t *testing.T) {
	fg := fgDefault()
	fg.SYNTimeout = 50 * units.Microsecond
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: 4,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	cfg := device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		Seed:  3,
		PFC:   true,
		FC:    core.New(*fg),
		RTO:   300 * units.Microsecond,
	}
	n := device.New(cfg)
	n.InstallFaults(uniformLoss(0.05), cfg.Seed)
	flows := addIncast(n, tp, 8, 100*units.KB)
	n.Run(units.Time(500 * units.Millisecond))
	if n.Stats.Drops == 0 {
		t.Fatal("no injected loss")
	}
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d not recovered under 5%% loss", i)
		}
	}
}

func TestPerDstPausePausesSenders(t *testing.T) {
	fg := core.IdealConfig(14 * units.KB)
	fg.PauseThreshOff = 5 * units.KB
	fg.PauseThreshOn = 2 * units.KB
	n, cfg := testNet(12, &fg)
	flows := addIncast(n, cfg.Topo, 24, 100*units.KB)
	n.Run(units.Time(100 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("flow incomplete under per-dst pause")
		}
	}
	// With pause support, source ToR VOQs stay tiny: ToR-Up max buffer
	// should be well below the no-pause run.
	upPause := n.Stats.MaxClassBuffer(topo.ClassToRUp)
	fgNoPause := core.IdealConfig(14 * units.KB)
	fgNoPause.PerDstPause = false
	n2, cfg2 := testNet(12, &fgNoPause)
	flows2 := addIncast(n2, cfg2.Topo, 24, 100*units.KB)
	n2.Run(units.Time(100 * units.Millisecond))
	for _, f := range flows2 {
		if !f.Done() {
			t.Fatal("flow incomplete without pause")
		}
	}
	upNoPause := n2.Stats.MaxClassBuffer(topo.ClassToRUp)
	if upPause >= upNoPause {
		t.Fatalf("per-dst pause should shrink ToR-Up buffer: %v vs %v", upPause, upNoPause)
	}
}

func TestVOQPoolExhaustionShares(t *testing.T) {
	fg := fgDefault()
	fg.MaxVOQs = 1
	n, cfg := testNet(12, fg)
	// Two simultaneous incasts to different destinations in different
	// racks force VOQ sharing on the source ToRs.
	tp := cfg.Topo
	d1 := tp.Hosts[35] // rack 2
	d2 := tp.Hosts[34] // rack 2
	var flows []*device.Flow
	for i := 0; i < 12; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], d1, 60*units.KB, 0, packet.CatIncast))
		flows = append(flows, n.AddFlow(tp.Hosts[12+i], d2, 60*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(100 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete with a single shared VOQ", i)
		}
	}
	if n.Stats.MaxVOQInUse > 1 {
		t.Fatalf("VOQ pool of 1 reported %d in use", n.Stats.MaxVOQInUse)
	}
}

func TestFatTreeBidirectionalIncastNoDeadlock(t *testing.T) {
	// The Fig 4 scenario: pod A hosts blast a host in pod B while pod B
	// hosts blast a host in pod A. With VOQ grouping the aggs must not
	// deadlock even with a tiny VOQ pool.
	fg := core.DefaultConfig(14 * units.KB)
	fg.MaxVOQs = 2
	fg.VOQGrouping = true
	c := topo.FatTree(4)
	c.HostRate, c.FabricRate = 10*units.Gbps, 10*units.Gbps
	tp := c.Build()
	cfg := device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		Seed:  5,
		PFC:   true,
		FC:    core.New(fg),
	}
	n := device.New(cfg)
	// Pod of host i is i/4 (2 edges x 2 hosts); pick hostA in pod 0,
	// hostB in pod 1.
	hostA := tp.Hosts[0]
	hostB := tp.Hosts[7]
	var flows []*device.Flow
	for i := 1; i < 4; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], hostB, 100*units.KB, 0, packet.CatIncast))
	}
	for i := 4; i < 7; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], hostA, 100*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(200 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d deadlocked (delivered at most %v of %v)", i, f.Size, f.Size)
		}
	}
}

func TestSwitchSYNResyncsAfterTotalCreditLoss(t *testing.T) {
	// Direct unit-style exercise: crank loss to 30% so whole credit
	// rounds vanish; the SYN path must still converge.
	fg := fgDefault()
	fg.SYNTimeout = 30 * units.Microsecond
	tp := topo.LeafSpineConfig{
		Spines: 1, ToRs: 2, HostsPerToR: 2,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	cfg := device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		Seed:  11,
		PFC:   true,
		FC:    core.New(*fg),
		RTO:   300 * units.Microsecond,
	}
	n := device.New(cfg)
	n.InstallFaults(uniformLoss(0.3), cfg.Seed)
	f := n.AddFlow(tp.Hosts[0], tp.Hosts[3], 100*units.KB, 0, packet.CatIncast)
	n.Run(units.Time(2000 * units.Millisecond))
	if n.Stats.Drops == 0 {
		t.Fatal("no injected loss")
	}
	if !f.Done() {
		t.Fatal("flow never completed under 30% loss with switchSYN recovery")
	}
}

func TestNoVOQForPoissonTraffic(t *testing.T) {
	// Light all-to-all traffic must not trip incast identification.
	n, cfg := testNet(4, fgDefault())
	tp := cfg.Topo
	rng := sim.NewRand(9)
	var flows []*device.Flow
	for i := 0; i < 30; i++ {
		src := tp.Hosts[rng.Intn(len(tp.Hosts))]
		dst := tp.Hosts[rng.Intn(len(tp.Hosts))]
		if src == dst {
			continue
		}
		flows = append(flows, n.AddFlow(src, dst, 20*units.KB,
			units.Time(i)*units.Time(50*units.Microsecond), packet.CatVictimPFC))
	}
	n.Run(units.Time(50 * units.Millisecond))
	for _, f := range flows {
		if !f.Done() {
			t.Fatal("poisson flow incomplete")
		}
	}
	if n.Stats.MaxVOQInUse != 0 {
		t.Fatalf("spaced background traffic allocated %d VOQs", n.Stats.MaxVOQInUse)
	}
}
