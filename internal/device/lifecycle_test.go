package device

import (
	"reflect"
	"testing"

	"floodgate/internal/cc"
	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/units"
)

// The flow lifecycle tests run each scenario twice: on a one-shard
// Cluster, whose flows are simulator-owned and recycled at sender-done,
// and on a stand-alone Network, whose AddFlow hands out held flows that
// keep their object, their live slot and their rtoQ entry for good — the
// behaviour recycling must be indistinguishable from.

type lifecycleSpec struct {
	src, dst packet.NodeID
	size     units.ByteSize
	start    units.Time
}

// lifecycleNet builds the scenario's network with the flows registered:
// held on a stand-alone Network, or simulator-owned on a one-shard
// Cluster.
func lifecycleNet(cfg Config, held bool, plan *fault.Plan, flows []lifecycleSpec) *Network {
	if held {
		n := New(cfg)
		n.InstallFaults(plan, 1)
		for _, s := range flows {
			n.AddFlow(s.src, s.dst, s.size, s.start, packet.CatVictimPFC)
		}
		return n
	}
	c := NewCluster(cfg, []*sim.Engine{cfg.Engine}, make([]int, len(cfg.Topo.Nodes)))
	c.InstallFaults(plan, 1)
	for _, s := range flows {
		c.AddFlow(s.src, s.dst, s.size, s.start, packet.CatVictimPFC)
	}
	c.SealFlows()
	return c.Nets[0]
}

// retransmitTimes steps the engine in 1 µs slices and returns the slice
// ends at which the RTO retransmission counter moved. each, if non-nil,
// inspects the network after every slice, with the times so far.
func retransmitTimes(n *Network, until units.Time, each func(at units.Time, sofar []units.Time)) []units.Time {
	var at []units.Time
	seen := n.Stats.Retransmits
	for t := units.Time(units.Microsecond); t <= until; t = t.Add(units.Microsecond) {
		n.Run(t)
		if n.Stats.Retransmits != seen {
			seen = n.Stats.Retransmits
			at = append(at, t)
		}
		if each != nil {
			each(t, at)
		}
	}
	return at
}

// TestLostFinalAcksReAckedFromLog: the receiver finishes a three-segment
// flow but the ACKs of its last two segments die on a downed link. The
// sender times out and resends both; the duplicates are re-ACKed, which
// finishes and releases the sender. A straggler landing after that is
// still answered — from the log, the flow's object being gone — and the
// answer finds no sender. Everything observable equals the held run.
func TestLostFinalAcksReAckedFromLog(t *testing.T) {
	const size = 3 * MSS
	newCfg := func() Config {
		cfg := smallCfg()
		cfg.RTO = 200 * units.Microsecond
		return cfg
	}
	hosts := newCfg().Topo.Hosts
	src, dst := hosts[0], hosts[5]
	flows := []lifecycleSpec{{src, dst, size, 0}}

	// Dry run: when does the receiver finish?
	dry := lifecycleNet(newCfg(), true, nil, flows)
	dry.Run(units.Time(units.Millisecond))
	finish := dry.Flows()[0].Finish
	if !dry.Flows()[0].Done() || dry.Stats.Retransmits != 0 {
		t.Fatal("dry run did not complete cleanly")
	}
	// The last segment leaves the ToR one serialization plus one
	// propagation before it lands; the second-to-last segment's ACK
	// leaves the receiver one serialization before that landing. Downing
	// the host link in between loses both final ACKs and no data.
	tor := dry.Topo.Node(dst).Ports[0].Peer
	link := fault.Link{A: tor, B: dst}
	down := finish.Add(-units.TxTime(packet.MTU, 10*units.Gbps) - 300*units.Nanosecond)
	plan := func() *fault.Plan {
		return &fault.Plan{Events: []fault.Event{
			{At: down, Kind: fault.LinkDown, Link: link},
			{At: finish.Add(50 * units.Microsecond), Kind: fault.LinkUp, Link: link},
		}}
	}

	type outcome struct {
		fct              units.Duration
		rtx, drops       int64
		data, ctrl       units.ByteSize
		delivered        units.ByteSize
		retransmitTimes  []units.Time
		senderDone, done bool
	}
	run := func(held bool) (outcome, *Network) {
		n := lifecycleNet(newCfg(), held, plan(), flows)
		rt := retransmitTimes(n, units.Time(units.Millisecond), nil)
		// A late duplicate of the last segment, as a slow path would deliver.
		late := n.newData(1, src, dst, size-MSS, MSS, true)
		n.HostsByID[dst].receive(late)
		n.Run(units.Time(2 * units.Millisecond))
		samples := n.Stats.AllFCTs()
		if len(samples) != 1 {
			t.Fatalf("held=%v: %d FCT samples, want 1", held, len(samples))
		}
		o := outcome{
			fct: samples[0].FCT, rtx: n.Stats.Retransmits, drops: n.Stats.Drops,
			data: n.Stats.WireTotal(stats.WireData), ctrl: n.Stats.WireTotal(stats.WireCtrl),
			delivered: n.DeliveredBytes(), retransmitTimes: rt, done: n.isDone(1),
			senderDone: n.HostsByID[src].senders == nil,
		}
		return o, n
	}
	want, _ := run(true)
	got, n := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled run differs from the held run:\n got %+v\nwant %+v", got, want)
	}
	if got.fct != dry.Flows()[0].FCT() || !got.done || got.delivered != size {
		t.Errorf("receiver: FCT %v (dry run %v), done %v, delivered %v", got.fct, dry.Flows()[0].FCT(), got.done, got.delivered)
	}
	if got.drops != 2 || got.rtx != 1 {
		t.Errorf("drops = %d, RTO retransmissions = %d; want the two final ACKs lost and one timeout", got.drops, got.rtx)
	}
	// Three ACKs on the first pass (two of them lost at the host link,
	// before any switch), one per resent segment, one for the straggler:
	// each crosses three switches.
	if wantCtrl := (1 + 2 + 1) * 3 * packet.CtrlSize; got.ctrl != wantCtrl {
		t.Errorf("control bytes on switch egress = %v, want %v: the straggler was not re-ACKed", got.ctrl, wantCtrl)
	}
	if !got.senderDone {
		t.Error("sender never finished: the duplicates were not re-ACKed")
	}
	if n.flow(1) != nil || poolLen(n) != 1 || n.minted != 1 {
		t.Errorf("flow object not released: live slot %v, pool %d, minted %d", n.flow(1), poolLen(n), n.minted)
	}
}

// TestTombstonedRTOHeadKeepsDeadline: H is at the head of its host's
// rtoQ with the head timer armed for it when it finishes and is
// released; F, queued behind it, has been stalled since before that
// arming. The coarse timer must still fire at H's deadline — a released
// head that stepped aside early would re-arm it for F and time F out
// sooner. Timeout times equal the held run's.
func TestTombstonedRTOHeadKeepsDeadline(t *testing.T) {
	const rto = 200 * units.Microsecond
	newCfg := func() Config {
		cfg := smallCfg()
		cfg.RTO = rto
		return cfg
	}
	hosts := newCfg().Topo.Hosts
	src, reach, dead := hosts[0], hosts[2], hosts[5]
	flows := []lifecycleSpec{
		{src, reach, 340 * units.KB, 0},                               // H: ~280 µs at 10 Gbps, alone on its path
		{src, dead, 20 * units.KB, units.Time(5 * units.Microsecond)}, // F: every segment dies on the downed link
	}
	tp := newCfg().Topo
	plan := func() *fault.Plan {
		return &fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.LinkDown, Link: fault.Link{A: tp.Node(dead).Ports[0].Peer, B: dead}},
		}}
	}
	until := units.Time(900 * units.Microsecond)
	held := lifecycleNet(newCfg(), true, plan(), flows)
	want := retransmitTimes(held, until, nil)
	n := lifecycleNet(newCfg(), false, plan(), flows)
	h := n.HostsByID[src]

	// Up to H's completion: the first timer pass found H progressing and
	// re-armed for it, with F overdue behind it.
	var hDone units.Time
	got := retransmitTimes(n, until, func(at units.Time, sofar []units.Time) {
		if hDone != 0 || n.flow(1) != nil {
			return
		}
		hDone = at
		if h.rtoQ[h.rtoHead] != (flowRef{}) || !h.rtoTimer.Active() {
			t.Fatalf("at %v: released H is not a tombstone at the rtoQ head under an armed timer", at)
		}
		if len(sofar) != 0 {
			t.Fatalf("F timed out at %v, before H finished at %v: the scenario no longer holds", sofar[0], at)
		}
		if f := n.flow(2); f == nil || f.lastProgress.Add(rto) >= at {
			t.Fatalf("F is not overdue behind H at %v", at)
		}
	})
	if hDone == 0 {
		t.Fatal("H never finished")
	}
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("timeouts at %v with recycling, %v with held flows", got, want)
	}
	// H's deadline was armed by the timer pass at one RTO, from progress
	// made microseconds before it; F's own deadline passed long before.
	if first := got[0]; first < units.Time(2*rto-5*units.Microsecond) || first > units.Time(2*rto) {
		t.Errorf("F first timed out at %v (H released at %v); want H's deadline, just under %v", first, hDone, units.Time(2*rto))
	}
}

// TestRecycledFlowStartsClean: an object coming back from the pool
// carries nothing of its first life — sender, receiver and NDP state are
// zero, the controller equals a fresh one — and has the new flow's
// identity.
func TestRecycledFlowStartsClean(t *testing.T) {
	cfg := smallCfg()
	hosts := cfg.Topo.Hosts
	far := units.Time(units.Second)
	n := lifecycleNet(cfg, false, nil, []lifecycleSpec{
		{hosts[0], hosts[5], 50 * units.KB, 0},
		{hosts[3], hosts[1], 7 * units.KB, far},
	})
	n.Run(units.Time(10 * units.Millisecond))
	if poolLen(n) != 1 || n.flow(1) != nil || !n.isDone(1) {
		t.Fatalf("first flow not finished and released (pool %d)", poolLen(n))
	}
	old := n.flowPool
	if old.sndUna != 50*units.KB || old.rcvNxt != 50*units.KB || !old.senderDone || !old.done || old.Finish == 0 {
		t.Fatalf("pooled object does not carry its first life: %s", old.DebugString())
	}
	// State the first life could not dirty on this path.
	old.ndp = &ndpState{
		rtxQ: []units.ByteSize{1, 2}, seen: map[units.ByteSize]bool{3: true},
		pullCredits: 4, rcvdBytes: 5, pullsSent: 6, trims: 7,
	}
	old.Attempt, old.launched, old.cnpSent, old.lastCNP = 8, true, true, 9
	old.ctrl.OnCNP(10) // FixedWindow ignores it; the controller check below is about identity

	f := n.mintFlow(2, false)
	if f != old || poolLen(n) != 0 || n.minted != 1 {
		t.Fatalf("mint did not reuse the pooled object (pool %d, minted %d)", poolLen(n), n.minted)
	}
	want := Flow{
		ID: 2, Src: hosts[3], Dst: hosts[1], Size: 7 * units.KB, Cat: packet.CatVictimPFC, Start: far,
		net: n, ctrl: f.ctrl, ndp: &ndpState{}, dbg: f.dbg,
	}
	if !reflect.DeepEqual(*f, want) {
		t.Errorf("recycled flow = %+v\nwant %+v", *f, want)
	}
	rate := n.HostsByID[hosts[3]].port.Rate
	env := cc.Env{LinkRate: rate, BaseRTT: n.BaseRTT(), BDP: units.BDP(rate, n.BaseRTT())}
	if fresh := n.Cfg.CC(env); !reflect.DeepEqual(f.ctrl, fresh) {
		t.Errorf("recycled controller = %+v, fresh = %+v", f.ctrl, fresh)
	}
}

// TestHeldFlowsKeepTheirObject: a caller-owned flow is never pooled —
// its live slot and fields survive completion — but it does leave the
// sender list, so pause-resume scans stay proportional to live senders.
func TestHeldFlowsKeepTheirObject(t *testing.T) {
	cfg := smallCfg()
	n := New(cfg)
	f := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[5], 50*units.KB, 0, packet.CatVictimPFC)
	g := n.AddFlow(cfg.Topo.Hosts[0], cfg.Topo.Hosts[4], units.MB, 0, packet.CatVictimPFC)
	n.Run(units.Time(200 * units.Microsecond))
	h := n.HostsByID[f.Src]
	if !f.Done() || !f.senderDone || g.senderDone {
		t.Fatalf("want the short flow finished and the long one in flight: %s / %s", f.DebugString(), g.DebugString())
	}
	if n.flow(f.ID) != f || poolLen(n) != 0 || f.sndUna != f.Size {
		t.Error("held flow was recycled")
	}
	if h.senders != g || h.sendersTail != g || g.sprev != nil || g.snext != nil {
		t.Error("finished held flow still on the sender list")
	}
}

// TestRTOQueueFollowsLiveSenders: one host starts 1,200 one-segment
// flows inside a single RTO, so its timer never fires and no entry ever
// surfaces; every flow finishes and is released, leaving a tombstone.
// A full queue reclaims them before it grows, so at every step its
// length stays within a small multiple of the peak number of senders
// live at once — never one entry per flow ever sent.
func TestRTOQueueFollowsLiveSenders(t *testing.T) {
	const nflows = 1200
	cfg := smallCfg()
	cfg.RTO = 10 * units.Millisecond
	hosts := cfg.Topo.Hosts
	src := hosts[0]
	flows := make([]lifecycleSpec, nflows)
	for i := range flows {
		flows[i] = lifecycleSpec{src, hosts[1+i%5], units.KB, units.Time(i) * units.Time(units.Microsecond)}
	}
	n := lifecycleNet(cfg, false, nil, flows)
	h := n.HostsByID[src]
	peak, longest := 0, 0
	for at := units.Time(units.Microsecond); at <= units.Time(2*units.Millisecond); at = at.Add(units.Microsecond) {
		n.Run(at)
		live := 0
		for f := h.senders; f != nil; f = f.snext {
			live++
		}
		peak, longest = max(peak, live), max(longest, len(h.rtoQ))
		if len(h.rtoQ) > 4*(peak+1) {
			t.Fatalf("at %v: rtoQ holds %d entries with at most %d senders ever live at once", at, len(h.rtoQ), peak)
		}
	}
	if got := len(n.Stats.AllFCTs()); got != nflows || n.Stats.Retransmits != 0 || h.senders != nil {
		t.Fatalf("%d of %d flows finished with %d retransmits; want all, none, and no sender left", got, nflows, n.Stats.Retransmits)
	}
	t.Logf("peak live senders %d, longest rtoQ %d", peak, longest)
}
