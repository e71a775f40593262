package main

import (
	"runtime"

	"floodgate/internal/cc"
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/exp"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// The rungs time one layer each through its exported functions, on the
// traced iteration only. They are fed synthetic simulated times and
// sizes: no host-clock reading ever enters a collector or an engine.

// replayCap bounds each round of the scheduler replay so a traced run
// stays short; the per-event cost is what the rung reports, and
// sim.replay_share scales it back up to the run's real event count.
const replayCap = 2_000_000

// runRungs runs the empty twin and every per-layer rung and returns
// their readings keyed by metric name.
func runRungs(rec *recorder, tp *topo.Topology, rc exp.RunConfig, seed uint64, sz size, exact map[string]float64) map[string]float64 {
	out := map[string]float64{}
	div := sz.RungDiv

	// The same fabric and scheme with zero flows: the fixed cost of a run.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out["exp.empty_run_s"] = rec.timed("exp.empty_run", "", func() {
		empty := rc
		empty.Source = nil
		exp.Run(empty)
	})
	runtime.ReadMemStats(&m1)
	out["exp.empty_alloc_bytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)

	rungTopo(rec, tp, seed, div, out)
	rungBare(rec, tp, div, out)
	rungCore(rec, div, out)
	rungCC(rec, rc, div, out)
	events := int(exact["exp.events"])
	if events > replayCap/div {
		events = replayCap / div
	}
	backlog := int(exact["sim.backlog_hw"])
	out["sim.replay_ns_per_event"] = rungReplay(rec, "sim.replay_wheel", sim.SchedWheel, events, backlog, seed)
	out["sim.replay_heap_ns_per_event"] = rungReplay(rec, "sim.replay_heap", sim.SchedHeap, events, backlog, seed)
	rungStats(rec, div, out)
	rungPacket(rec, div, out)
	return out
}

// perOp converts a timed loop to nanoseconds per operation.
func perOp(seconds float64, ops int) float64 { return seconds * 1e9 / float64(ops) }

var sink int // keeps rung results alive

// rungTopo times routing lookups over a seeded sample of (switch, dst)
// pairs.
func rungTopo(rec *recorder, tp *topo.Topology, seed uint64, div int, out map[string]float64) {
	const pairs = 4096
	ops := 2_000_000 / div
	r := sim.NewRand(seed ^ 0x70b0)
	var switches []packet.NodeID
	for _, n := range tp.Nodes {
		if n.Kind == topo.SwitchNode {
			switches = append(switches, n.ID)
		}
	}
	type pair struct{ sw, src, dst packet.NodeID }
	ps := make([]pair, pairs)
	for i := range ps {
		ps[i] = pair{switches[r.Intn(len(switches))], tp.Hosts[r.Intn(len(tp.Hosts))], tp.Hosts[r.Intn(len(tp.Hosts))]}
	}
	out["topo.nextports_ns"] = perOp(rec.timed("topo.nextports", "", func() {
		for i := 0; i < ops; i++ {
			p := ps[i%pairs]
			sink += len(tp.NextPorts(p.sw, p.dst))
		}
	}), ops)
	out["topo.ecmp_ns"] = perOp(rec.timed("topo.ecmp", "", func() {
		for i := 0; i < ops; i++ {
			p := ps[i%pairs]
			sink += tp.ECMP(p.sw, p.src, p.dst)
		}
	}), ops)
}

// rungBare sends one long fixed-window flow across the workload's
// fabric with no flow-control module, no PFC and nothing contending:
// the bare cost of host send, wire, switch forward and ACK per event.
func rungBare(rec *recorder, tp *topo.Topology, div int, out map[string]float64) {
	flowBytes := 60 * units.MB / units.ByteSize(div)
	eng := sim.NewEngine()
	n := device.New(device.Config{Topo: tp, Engine: eng, CC: cc.NewFixedWindow()})
	f := n.AddFlow(tp.Hosts[0], tp.Hosts[len(tp.Hosts)-1], flowBytes, 0, packet.CatVictimPFC)
	s := rec.timed("device.bare", "", func() { eng.RunAll() })
	if !f.Done() {
		panic("bench: bare-forwarding flow did not finish")
	}
	out["device.bare_ns_per_event"] = perOp(s, int(eng.Processed))
}

// twoToRFabric is the smallest fabric with a spine: two racks of two
// hosts at the paper's link rates.
func twoToRFabric() *topo.Topology {
	return topo.LeafSpineConfig{Spines: 1, ToRs: 2, HostsPerToR: 2,
		HostRate: 100 * units.Gbps, SpineRate: 400 * units.Gbps, Prop: 600 * units.Nanosecond}.Build()
}

// rungCore drives one Floodgate module — the spine of a two-ToR fabric,
// which plays both the upstream (window) and downstream (credit) roles
// — through the device.FlowControl interface.
func rungCore(rec *recorder, div int, out map[string]float64) {
	tp := twoToRFabric()
	newSpine := func(cfg core.Config) (*device.Network, *device.Switch) {
		n := device.New(device.Config{Topo: tp, Engine: sim.NewEngine(), FC: core.New(cfg)})
		for _, sw := range n.Switches {
			if sw != nil && sw.Node().Layer == topo.LayerCore {
				return n, sw
			}
		}
		panic("bench: two-ToR fabric has no spine")
	}
	src, dst := tp.Hosts[0], tp.Hosts[len(tp.Hosts)-1]
	const in = 0 // spine port toward src's ToR
	// A long credit timer widens the per-destination window (BDP +
	// rate × timer) so that a batch long enough to time fits inside it.
	// The timer itself never fires: the engine does not run.
	wide := core.DefaultConfig(baseBDP(tp))
	wide.CreditTimer = 500 * units.Microsecond
	n, sw := newSpine(wide)
	outPort := n.Route(sw.Node().ID, src, dst)
	fc := sw.FC()

	// data mints a data segment as the upstream ToR's module would have
	// stamped it: consecutive PSNs, so the spine sees no gap.
	var psn units.ByteSize
	data := func(n *device.Network) *packet.Packet {
		p := n.NewCtrl(packet.Data, 1, src, dst)
		p.Size = packet.MTU
		p.InPort = in
		psn += p.Size
		p.PSN = psn
		p.FGEpoch = 1
		return p
	}
	// credit tells the spine the downstream ToR forwarded `cum` bytes.
	credit := func(n *device.Network, sw *device.Switch, cum units.ByteSize) {
		cr := n.NewCtrl(packet.Credit, 0, sw.Node().Ports[outPort].Peer, sw.Node().ID)
		cr.Credits = append(cr.Credits[:0], packet.CreditEntry{Dst: dst, Bytes: packet.MTU, Cum: cum})
		if !fc.OnCtrl(cr, outPort) {
			panic("bench: Floodgate module did not consume a credit")
		}
		n.Recycle(cr)
	}

	// Forward and credit alternate in batches smaller than the window,
	// so the window never exhausts and nothing parks.
	const batch = 8192
	rounds := 128 / div
	p := data(n)
	var cum units.ByteSize
	var fwdS, creditS float64
	rec.timed("core.forward+credit", "", func() {
		for r := 0; r < rounds; r++ {
			fwdS += rec.timed("core.forward", "core.forward+credit", func() {
				for i := 0; i < batch; i++ {
					if fc.OnIngress(p, in, outPort).Consumed {
						panic("bench: window exhausted in the forward rung")
					}
					fc.OnDequeue(p, outPort, 0)
					p.PSN += p.Size
				}
			})
			creditS += rec.timed("core.credit", "core.forward+credit", func() {
				for i := 0; i < batch; i++ {
					cum += packet.MTU
					credit(n, sw, cum)
				}
			})
		}
	})
	out["core.forward_ns"] = perOp(fwdS, rounds*batch)
	out["core.credit_ns"] = perOp(creditS, rounds*batch)

	// Park and drain: exhaust the window, then each operation parks one
	// segment (allocating the VOQ) and credits one segment back, which
	// drains it to the egress queue and frees the VOQ. The engine never
	// runs, so egress is a plain queue push; a fresh network per round
	// bounds how many segments pile up there.
	const parkOps = 16384
	parkRounds := 1 + 7/div
	var parkS float64
	rec.timed("core.park_drain", "", func() {
		for r := 0; r < parkRounds; r++ {
			n, sw = newSpine(core.DefaultConfig(baseBDP(tp)))
			fc = sw.FC()
			psn, cum = 0, 0
			for {
				p := data(n)
				if fc.OnIngress(p, in, outPort).Consumed {
					cum += packet.MTU
					credit(n, sw, cum)
					break
				}
			}
			ps := make([]*packet.Packet, parkOps)
			for i := range ps {
				ps[i] = data(n)
			}
			parkS += rec.timed("core.park_drain.round", "core.park_drain", func() {
				for _, p := range ps {
					if !fc.OnIngress(p, in, outPort).Consumed {
						panic("bench: exhausted window did not park")
					}
					cum += packet.MTU
					credit(n, sw, cum)
				}
			})
			if m := fc.(*core.Module); m.VOQsInUse() != 0 {
				panic("bench: park/drain rung left a VOQ in use")
			}
		}
	})
	out["core.park_drain_ns"] = perOp(parkS, parkRounds*parkOps)
}

// rungCC times the workload's DCQCN controller at synthetic simulated
// times.
func rungCC(rec *recorder, rc exp.RunConfig, div int, out map[string]float64) {
	ops := 1_000_000 / div
	env := cc.Env{LinkRate: 100 * units.Gbps, BaseRTT: 5 * units.Microsecond, BDP: 64 * units.KB}
	factory := rc.Scheme.CC
	var ctrl cc.Controller
	out["cc.new_ns"] = perOp(rec.timed("cc.new", "", func() {
		for i := 0; i < ops; i++ {
			ctrl = factory(env)
		}
	}), ops)
	now := units.Time(0)
	ctrl.OnCNP(now) // leave the line-rate fast path, as any congested flow has
	ack := &packet.Packet{Kind: packet.Ack}
	out["cc.dcqcn_ack_ns"] = perOp(rec.timed("cc.dcqcn_ack", "", func() {
		for i := 0; i < ops; i++ {
			now = now.Add(units.Microsecond)
			ctrl.OnAck(now, ack, 6*units.Microsecond)
		}
	}), ops)
	out["cc.dcqcn_send_ns"] = perOp(rec.timed("cc.dcqcn_send", "", func() {
		for i := 0; i < ops; i++ {
			now = now.Add(units.Microsecond)
			ctrl.OnSend(now, packet.MTU-packet.HeaderSize)
		}
	}), ops)
	out["cc.dcqcn_cnp_ns"] = perOp(rec.timed("cc.dcqcn_cnp", "", func() {
		for i := 0; i < ops; i++ {
			now = now.Add(50 * units.Microsecond)
			ctrl.OnCNP(now)
		}
	}), ops)
	sink += int(ctrl.Window())
}

// replayEvent reschedules itself, holding the engine's backlog steady.
type replayEvent struct {
	eng   *sim.Engine
	delay units.Duration
}

func replayFn(a any) {
	e := a.(*replayEvent)
	e.eng.AfterArg(e.delay, replayFn, e)
}

// rungReplay executes `events` no-op events on a bare engine while
// `backlog` of them stay queued — what the scheduler alone would cost
// at the run's own queue depth — three times over, and returns the
// fastest round's cost per event. Fifteen delays in sixteen are drawn
// between a 400 G control frame's and a 100 G hop's latency, the
// sixteenth is a 10 µs credit-timer period.
func rungReplay(rec *recorder, name string, sched sim.Scheduler, events, backlog int, seed uint64) float64 {
	if backlog < 1 {
		backlog = 1
	}
	best := 0.0
	for round := 0; round < 3; round++ {
		eng := sim.NewEngineWith(sched)
		r := sim.NewRand(seed ^ 0x5c4ed)
		evs := make([]replayEvent, backlog)
		for i := range evs {
			delay := 30*units.Nanosecond + units.Duration(r.Int63n(int64(1400*units.Nanosecond)))
			if i%16 == 0 {
				delay = 10 * units.Microsecond
			}
			evs[i] = replayEvent{eng: eng, delay: delay}
			eng.AfterArg(delay, replayFn, &evs[i])
		}
		s := rec.timed(name, "", func() {
			for eng.Processed < uint64(events) {
				at, _ := eng.NextAt()
				eng.Run(at.Add(100 * units.Microsecond))
			}
		})
		if ns := perOp(s, int(eng.Processed)); best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// rungStats times the collector's per-packet hooks, FlowDone and Merge
// at synthetic simulated times.
func rungStats(rec *recorder, div int, out map[string]float64) {
	ops, flows := 1_000_000/div, 200_000/div
	c := stats.NewCollector(10 * units.Microsecond)
	now := units.Time(0)
	out["stats.hook_ns"] = perOp(rec.timed("stats.hooks", "", func() {
		for i := 0; i < ops; i++ {
			now = now.Add(100 * units.Nanosecond)
			b := units.ByteSize(i%64) * packet.MTU
			c.PortBuffer(now, 3, int32(i%16), topo.ClassToRDown, b)
			c.SwitchBuffer(3, 4*b)
			c.Received(now, packet.CatVictimPFC, packet.MTU)
			c.OnWire(now, stats.WireData, packet.MTU)
			c.QueueDelay(topo.ClassToRDown, units.Duration(i%64)*units.Microsecond)
		}
	}), 5*ops)
	fill := func(c *stats.Collector) {
		for i := 0; i < flows; i++ {
			start := units.Time(i) * units.Time(units.Microsecond)
			c.FlowDone(uint64(i), packet.Category(i%3), 10*units.KB, start, start.Add(20*units.Microsecond), 100*units.Gbps)
		}
	}
	out["stats.flowdone_ns"] = perOp(rec.timed("stats.flowdone", "", func() { fill(c) }), flows)
	other := stats.NewCollector(10 * units.Microsecond)
	fill(other)
	other.OnWire(now, stats.WireCtrl, packet.CtrlSize)
	out["stats.merge_s"] = rec.timed("stats.merge", "", func() { c.Merge(other) })
	sink += len(c.AllFCTs())
}

// rungPacket times the pooled control-frame round trip.
func rungPacket(rec *recorder, div int, out map[string]float64) {
	ops := 4_000_000 / div
	tp := twoToRFabric()
	n := device.New(device.Config{Topo: tp, Engine: sim.NewEngine()})
	a, b := tp.Hosts[0], tp.Hosts[1]
	out["packet.ctrl_roundtrip_ns"] = perOp(rec.timed("packet.ctrl_roundtrip", "", func() {
		for i := 0; i < ops; i++ {
			n.Recycle(n.NewCtrl(packet.Ack, 1, a, b))
		}
	}), ops)
}
