package device

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"floodgate/internal/cc"
	"floodgate/internal/cc/dcqcn"
	"floodgate/internal/cc/hpcc"
	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// smallCfg builds a 2-spine/3-ToR/2-host leaf-spine at low rate so
// tests run instantly.
func smallCfg() Config { return sizedCfg(2) }

// sizedCfg widens the racks for incast tests (per-flow windows bound
// occupancy, so pressure needs sender count).
func sizedCfg(hostsPerToR int) Config {
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: hostsPerToR,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	return Config{
		Topo:   tp,
		Engine: sim.NewEngine(),
		Stats:  stats.NewCollector(10 * units.Microsecond),
		Seed:   1,
	}
}

// TestFlowSize pins the object of a flow in flight, its controller
// aside, at 160 bytes, a Go size class: words first, then 32-bit
// fields, then the flags, no trailing zero-size field, and NDP's state
// behind one pointer. The simdebug lifecycle stamp adds its own bytes.
func TestFlowSize(t *testing.T) {
	if unsafe.Sizeof(flowDebug{}) != 0 {
		t.Skip("the simdebug lifecycle stamp adds its own bytes")
	}
	if sz := unsafe.Sizeof(Flow{}); sz > 160 {
		t.Fatalf("Flow is %d bytes, want <= 160", sz)
	}
}

// TestFlowSpecSize pins the registration log's cost per flow ever
// registered, 24 bytes, and that packing loses nothing a flow may carry:
// a 2^40-byte flow (Fig 16's never-finishing background) reads back
// whole beside its category and manual bit, and 2^48 bytes is refused
// with a message naming the size.
func TestFlowSpecSize(t *testing.T) {
	if sz := unsafe.Sizeof(flowSpec{}); sz != 24 {
		t.Fatalf("flowSpec is %d bytes, want 24", sz)
	}
	cfg := smallCfg()
	hosts := cfg.Topo.Hosts
	c := NewCluster(cfg, []*sim.Engine{cfg.Engine}, make([]int, len(cfg.Topo.Nodes)))
	c.AddFlow(hosts[0], hosts[5], 1<<40, 0, packet.CatVictimPFC)
	c.AddAppFlow(hosts[1], hosts[4], 1<<48-1, 0, packet.CatVictimIncast, 1)
	n := c.Nets[0]
	if s := n.spec(1); s.size() != 1<<40 || s.Cat != packet.CatVictimPFC || s.manual || s.Src != hosts[0] || s.Dst != hosts[5] {
		t.Fatalf("flow 1 reads back as %+v, size %d", *s, s.size())
	}
	if s := n.spec(2); s.size() != 1<<48-1 || s.Cat != packet.CatVictimIncast || !s.manual {
		t.Fatalf("flow 2 reads back as %+v, size %d", *s, s.size())
	}
	for _, bad := range []struct {
		size units.ByteSize
		cat  packet.Category
		want string
	}{
		{1 << 48, packet.CatIncast, fmt.Sprint(1 << 48)},
		{units.KB, packet.NumCategories, "category 3"},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, bad.want) {
					t.Errorf("registering size %d cat %d: panic %q, want one naming %q", bad.size, bad.cat, r, bad.want)
				}
			}()
			c.AddFlow(hosts[0], hosts[5], bad.size, 0, bad.cat)
		}()
	}
}

func TestSingleFlowDelivers(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	src, dst := cfg.Topo.Hosts[0], cfg.Topo.Hosts[5]
	f := n.AddFlow(src, dst, 100*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(10 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	// 100KB at 10Gbps is 80us serialization; FCT must be in the right
	// ballpark (above the pure transfer time, below 3x).
	min := units.TxTime(100*units.KB, 10*units.Gbps)
	if f.FCT() < min {
		t.Fatalf("FCT %v below line-rate bound %v", f.FCT(), min)
	}
	if f.FCT() > 3*min {
		t.Fatalf("FCT %v too large for an idle network (bound %v)", f.FCT(), 3*min)
	}
}

func TestFCTRecorded(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[3], 30*units.KB, 0, packet.CatIncast)
	n.AddFlow(cfg.Topo.Hosts[1], cfg.Topo.Hosts[4], 30*units.KB, 0, packet.CatVictimIncast)
	n.Run(units.Time(10 * units.Millisecond))
	if len(n.Stats.FCTs(stats.CatIncast)) != 1 {
		t.Fatalf("incast FCT samples = %d", len(n.Stats.FCTs(stats.CatIncast)))
	}
	if len(n.Stats.FCTs(stats.CatVictimIncast)) != 1 {
		t.Fatal("victim FCT missing")
	}
	s := n.Stats.FCTs(stats.CatIncast)[0]
	if f := n.Flows()[0]; s.FCT <= 0 || s.FCT != f.FCT() {
		t.Fatalf("bad sample %+v (flow FCT %v)", s, f.FCT())
	}
}

func TestSameRackFlow(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[1], 10*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(units.Millisecond))
	if !f.Done() {
		t.Fatal("same-rack flow did not complete")
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	var flows []*Flow
	for i := 0; i < 20; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+3)%len(hosts)]
		if src == dst {
			continue
		}
		flows = append(flows, n.AddFlow(src, dst, units.ByteSize(1+i)*10*units.KB,
			units.Time(i)*units.Time(units.Microsecond), packet.CatVictimPFC))
	}
	n.Run(units.Time(50 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete (acked %v of %v)", i, f.sndUna, f.Size)
		}
	}
}

func TestIncastFillsLastHopWithoutFlowControl(t *testing.T) {
	cfg := sizedCfg(8)
	cfg.PFC = true
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	dst := hosts[len(hosts)-1]
	for _, src := range hosts[:16] { // 16 cross-rack senders
		n.AddFlow(src, dst, 500*units.KB, 0, packet.CatIncast)
	}
	n.Run(units.Time(10 * units.Millisecond))
	// The last hop (ToR-Down) must be where the buffer builds.
	down := n.Stats.MaxClassBuffer(topo.ClassToRDown)
	up := n.Stats.MaxClassBuffer(topo.ClassToRUp)
	if down < 100*units.KB {
		t.Fatalf("last-hop buffer %v too small for a 4:1 incast", down)
	}
	if up > down {
		t.Fatalf("first-hop buffer %v exceeds last-hop %v without flow control", up, down)
	}
	for _, f := range n.Flows() {
		if !f.Done() {
			t.Fatal("incast flow incomplete")
		}
	}
}

func TestPFCTriggersUnderSevereIncast(t *testing.T) {
	cfg := sizedCfg(8)
	cfg.BufferSize = 150 * units.KB // tiny buffer forces PFC
	cfg.PFC = true
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	dst := hosts[len(hosts)-1]
	for _, src := range hosts[:16] {
		n.AddFlow(src, dst, 300*units.KB, 0, packet.CatIncast)
	}
	n.Run(units.Time(20 * units.Millisecond))
	n.Finalize()
	var total units.Duration
	for _, l := range []topo.Layer{topo.LayerHost, topo.LayerToR, topo.LayerCore} {
		total += n.Stats.PFCPauseTime(l)
	}
	if total == 0 {
		t.Fatal("severe incast with a tiny buffer did not trigger PFC")
	}
	if n.Stats.Drops > 0 {
		t.Fatalf("PFC is enabled yet %d packets dropped", n.Stats.Drops)
	}
	for _, f := range n.Flows() {
		if !f.Done() {
			t.Fatalf("flow incomplete under PFC (acked %v/%v)", f.sndUna, f.Size)
		}
	}
}

func TestBufferOverflowDropsAndRTORecovers(t *testing.T) {
	cfg := sizedCfg(8)
	cfg.BufferSize = 100 * units.KB
	cfg.PFC = false // lossy: must overflow
	cfg.RTO = 200 * units.Microsecond
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	dst := hosts[len(hosts)-1]
	for _, src := range hosts[:16] {
		n.AddFlow(src, dst, 200*units.KB, 0, packet.CatIncast)
	}
	n.Run(units.Time(100 * units.Millisecond))
	if n.Stats.Drops == 0 {
		t.Fatal("expected drops with a 100KB lossy buffer")
	}
	if n.Stats.Retransmits == 0 {
		t.Fatal("expected RTO retransmissions")
	}
	for _, f := range n.Flows() {
		if !f.Done() {
			t.Fatalf("flow not recovered by go-back-N (acked %v/%v, drops=%d)", f.sndUna, f.Size, n.Stats.Drops)
		}
	}
}

func TestECNMarksTriggerCNPAndDCQCNSlows(t *testing.T) {
	cfg := smallCfg()
	cfg.ECN = ECNConfig{Enable: true, KMin: 20 * units.KB, KMax: 80 * units.KB}
	cfg.CC = dcqcn.Default()
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	dst := hosts[5]
	var flows []*Flow
	for _, src := range hosts[:4] {
		flows = append(flows, n.AddFlow(src, dst, units.MB, 0, packet.CatIncast))
	}
	n.Run(units.Time(50 * units.Millisecond))
	slowed := false
	for _, f := range flows {
		if f.Controller().Rate() < 10*units.Gbps {
			slowed = true
		}
		if !f.Done() {
			t.Fatal("flow incomplete")
		}
	}
	if !slowed {
		t.Fatal("DCQCN did not reduce any sender's rate under incast")
	}
}

func TestINTAppendedForHPCC(t *testing.T) {
	cfg := smallCfg()
	cfg.INT = true
	cfg.CC = hpcc.Default()
	n := New(cfg)
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], 500*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(10 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
}

func TestFixedWindowLimitsInflight(t *testing.T) {
	cfg := smallCfg()
	cfg.CC = cc.NewFixedWindow()
	n := New(cfg)
	// Window should be ~BDP; a cross-fabric flow of 10x BDP takes at
	// least 10 windows' worth of RTTs if the window binds... just check
	// the invariant inflight <= window throughout via final state.
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], 300*units.KB, 0, packet.CatVictimPFC)
	for i := 0; i < 3000; i++ {
		n.Eng.Run(n.Eng.Now().Add(units.Microsecond))
		if f.inflight() > f.ctrl.Window()+MSS {
			t.Fatalf("inflight %v exceeds window %v", f.inflight(), f.ctrl.Window())
		}
		if f.Done() {
			break
		}
	}
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
}

func TestLossInjectionRecovered(t *testing.T) {
	cfg := smallCfg()
	cfg.RTO = 200 * units.Microsecond
	n := New(cfg)
	// 5% uniform loss on every switch-to-switch link: a Gilbert–Elliott
	// chain that never leaves its Good state.
	n.InstallFaults(&fault.Plan{Burst: &fault.GilbertElliott{LossGood: 0.05}}, cfg.Seed)
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], 200*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(200 * units.Millisecond))
	if n.Stats.Drops == 0 {
		t.Fatal("no injected drops at 5% loss")
	}
	if !f.Done() {
		t.Fatalf("flow not recovered after injected loss (acked %v/%v)", f.sndUna, f.Size)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (units.Duration, uint64) {
		cfg := smallCfg()
		cfg.ECN = ECNConfig{Enable: true, KMin: 20 * units.KB, KMax: 80 * units.KB}
		cfg.CC = dcqcn.Default()
		n := New(cfg)
		hosts := cfg.Topo.Hosts
		var last *Flow
		for i := 0; i < 8; i++ {
			last = n.AddFlow(hosts[i%6], hosts[(i+2)%6], 100*units.KB, units.Time(i*1000), packet.CatVictimPFC)
		}
		n.Run(units.Time(20 * units.Millisecond))
		return last.FCT(), n.Eng.Processed
	}
	f1, e1 := run()
	f2, e2 := run()
	if f1 != f2 || e1 != e2 {
		t.Fatalf("non-deterministic: fct %v vs %v, events %d vs %d", f1, f2, e1, e2)
	}
}

func TestBaseRTTDerivation(t *testing.T) {
	tp := topo.DefaultLeafSpine().Build()
	n := New(Config{Topo: tp, Engine: sim.NewEngine()})
	rtt := n.BaseRTT()
	// Paper: base RTT 5.1us on the 2-tier fabric (4 hops, 600ns each,
	// plus serialization). Accept 4-7us.
	if rtt < 4*units.Microsecond || rtt > 7*units.Microsecond {
		t.Fatalf("derived base RTT = %v, want ~5.1us", rtt)
	}
	bdp := n.BaseBDP()
	if bdp < 50*units.KB || bdp > 90*units.KB {
		t.Fatalf("base BDP = %v, want ~64KB", bdp)
	}
}

func TestVictimSeparationInThroughputSeries(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	n.AddFlow(hosts[0], hosts[5], 50*units.KB, 0, packet.CatIncast)
	n.AddFlow(hosts[1], hosts[4], 50*units.KB, 0, packet.CatVictimIncast)
	n.Run(units.Time(5 * units.Millisecond))
	var inc, vic units.ByteSize
	for _, b := range n.Stats.RxSeries(stats.CatIncast) {
		inc += b
	}
	for _, b := range n.Stats.RxSeries(stats.CatVictimIncast) {
		vic += b
	}
	if inc != 50*units.KB || vic != 50*units.KB {
		t.Fatalf("rx series totals: incast=%v victim=%v, want 50KB each", inc, vic)
	}
}

// TestHostPerDstPause: a host honours DstPause/DstResume with no
// setting of its own.
func TestHostPerDstPause(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	src := n.HostsByID[hosts[0]]
	// Pause the destination before the flow starts (AddFlow with a
	// current start time begins sending synchronously).
	pause := packet.NewCtrl(n.pktID(), packet.DstPause, 0, hosts[2], hosts[0])
	pause.PauseDst = hosts[5]
	src.receive(pause)
	f := n.AddFlow(hosts[0], hosts[5], 100*units.KB, 0, packet.CatIncast)
	n.Run(units.Time(2 * units.Millisecond))
	if f.Done() {
		t.Fatal("flow completed despite per-dst pause")
	}
	if f.sndNxt != 0 {
		t.Fatalf("paused flow sent %v bytes", f.sndNxt)
	}
	// Resume and let it finish.
	resume := packet.NewCtrl(n.pktID(), packet.DstResume, 0, hosts[2], hosts[0])
	resume.PauseDst = hosts[5]
	src.receive(resume)
	n.Run(units.Time(10 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow did not complete after resume")
	}
}

func TestNDPTrimsAndRecovers(t *testing.T) {
	cfg := smallCfg()
	cfg.NDP = true
	cfg.PFC = false
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	dst := hosts[5]
	var flows []*Flow
	for _, src := range hosts[:4] {
		flows = append(flows, n.AddFlow(src, dst, 200*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(50 * units.Millisecond))
	if n.Stats.Trims == 0 {
		t.Fatal("4:1 incast with an 8-MTU trim threshold must trim")
	}
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("NDP flow %d incomplete (rcvd %v/%v, trims=%d)", i, f.ndp.rcvdBytes, f.Size, n.Stats.Trims)
		}
	}
	// Trimming bounds the queue: last-hop occupancy stays near the
	// threshold, far below the no-trim case.
	down := n.Stats.MaxClassBuffer(topo.ClassToRDown)
	if down > 40*packet.MTU {
		t.Fatalf("NDP last-hop buffer %v not bounded by trimming", down)
	}
}

func TestQueueDelayAttribution(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	hosts := cfg.Topo.Hosts
	// Two flows converge on one host: queue forms at ToR-Down.
	n.AddFlow(hosts[0], hosts[5], 200*units.KB, 0, packet.CatVictimIncast)
	n.AddFlow(hosts[2], hosts[5], 200*units.KB, 0, packet.CatVictimIncast)
	n.Run(units.Time(10 * units.Millisecond))
	if n.Stats.AvgQueueDelay(topo.ClassToRDown) == 0 {
		t.Fatal("no queuing delay recorded at the congested last hop")
	}
}

// TestRouteFaultedZeroAlloc is the active-fault routing gate: with one
// uplink of the routed ToR down, Route takes the live-subset re-hash
// path (downPorts > 0 and downAt[node] > 0) for every cross-rack pair,
// must never pick the dead port, and must select the live subset by
// scanning — not materializing — the candidate slice: zero allocations.
func TestRouteFaultedZeroAlloc(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	tp := cfg.Topo
	src := tp.Hosts[0]
	tor := tp.Node(src).Ports[0].Peer
	dead := -1
	for i, pt := range tp.Node(tor).Ports {
		if tp.Node(pt.Peer).Kind == topo.SwitchNode {
			dead = i
			break
		}
	}
	var remote []packet.NodeID
	onDead := 0
	for _, h := range tp.Hosts {
		if tp.Node(h).Ports[0].Peer != tor {
			remote = append(remote, h)
			if n.Route(tor, src, h) == dead {
				onDead++
			}
		}
	}
	if onDead == 0 {
		t.Fatal("no pair hashes onto the uplink about to fail; test premise broken")
	}
	n.InstallFaults(&fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.LinkDown, Link: fault.Link{A: tor, B: tp.Node(tor).Ports[dead].Peer}},
	}}, cfg.Seed)
	n.Eng.Run(0) // apply both halves of the link-down
	if got := n.FaultStats().LinksDown; got != 1 {
		t.Fatalf("links down = %d, want 1", got)
	}
	pickedDead := false
	allocs := testing.AllocsPerRun(1000, func() {
		for _, dst := range remote {
			if n.Route(tor, src, dst) == dead {
				pickedDead = true
			}
		}
	})
	if pickedDead {
		t.Fatal("Route picked the downed uplink")
	}
	if allocs != 0 {
		t.Fatalf("faulted Route allocates %.1f allocs per %d lookups, want 0", allocs, len(remote))
	}
}

// TestInstallFaultsResolvesPlan: a plan naming a node the topology lacks
// panics at install with fault.Plan.Resolve's error, which names the
// event, not with an index out of range from the port lookup.
func TestInstallFaultsResolvesPlan(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	outside := packet.NodeID(len(cfg.Topo.Nodes))
	defer func() {
		if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), "event 0 (link-down)") {
			t.Errorf("InstallFaults panicked with %v, want the resolver's error naming event 0", err)
		}
	}()
	n.InstallFaults(&fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkDown, Link: fault.Link{A: cfg.Topo.Hosts[0], B: outside}},
	}}, cfg.Seed)
}
