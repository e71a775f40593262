package exp

import (
	"fmt"
	"slices"

	"floodgate/internal/cc/dcqcn"
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Fig16 reproduces the CC-convergence experiment (§6.4): long-lived
// flows to a single receiver arrive periodically (far apart relative
// to convergence time), under two ECN-marking settings. Reported: the
// per-hop buffer occupancy as the flow count grows — DCQCN's ToR-Down
// keeps climbing with the flow count while Floodgate converges.
func Fig16(o Options) []Table {
	settings := []struct {
		name       string
		kmin, kmax units.ByteSize
	}{
		{"Kmin=40KB Kmax=160KB", 40 * units.KB, 160 * units.KB},
		{"Kmin=40KB Kmax=40KB", 40 * units.KB, 41 * units.KB},
	}
	const flows = 240
	// The paper's inflection sits at max{BW_host/Rate_min, Kmax/MTU}
	// (§6.4): past it, per-flow rate floors overload the receiver link
	// and the buffer grows with every additional flow. Bind Rate_min so
	// the inflection falls inside the swept range (~100 flows), as in
	// the paper's plot.
	dcqcnFloor := func(o Options) Scheme {
		s := DCQCN(o)
		cfg := dcqcnConfigScaled(o)
		cfg.MinRateFraction = 100
		s.CC, s.cc = dcqcn.New(cfg), cfg
		return s
	}
	// Submit every (ECN setting × scheme) run to the pool; rows are
	// assembled in submission order below, so the tables match the
	// serial path byte for byte.
	const nSchemes = 3
	rows := runJobs(o, len(settings)*nSchemes, func(idx int) []string {
		set := settings[idx/nSchemes]
		tp := o.leafSpine()
		s := schemeTriple(o, dcqcnFloor, tp)[idx%nSchemes]
		dst := tp.Hosts[len(tp.Hosts)-1]
		senders := incastSenders(tp)
		// Long-lived flows: sized far beyond the window so every
		// arrived flow stays active to the end (the paper's x-axis is
		// the number of concurrently active flows).
		interval := o.stretch(200 * units.Microsecond)
		dur := units.Duration(flows+4) * interval
		var specs []workload.FlowSpec
		for i := 0; i < flows; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: senders[i%len(senders)], Dst: dst,
				Size:  1 << 40, // never finishes within the window
				Start: units.Time(int64(i) * int64(interval)),
				Cat:   stats.CatIncast,
			})
		}
		ecn := device.ECNConfig{Enable: s.ECN, KMin: set.kmin, KMax: set.kmax}
		res := Run(RunConfig{
			Topo: tp, Scheme: s, Specs: specs,
			Duration: dur, Drain: units.Nanosecond, Seed: o.Seed, Opt: o,
			ECN: &ecn, BinWidth: interval,
		})
		series := res.Stats.BufSeries(topo.ClassToRDown)
		q := func(frac float64) string {
			idx := int(frac * float64(flows))
			if idx >= len(series) {
				idx = len(series) - 1
			}
			if idx < 0 {
				return "n/a"
			}
			return fmtBytes(series[idx])
		}
		return append([]string{s.Name, q(0.25), q(0.5), q(0.75), q(1)}, fmtBytes(res.Stats.MaxClassBuffer(topo.ClassToRDown)))
	})
	return split("Fig 16: buffer vs #arrived flows, ECN %s", []string{settings[0].name, settings[1].name},
		[]string{"scheme", "after 1/4", "after 1/2", "after 3/4", "end", "ToR-Down max"},
		"paper: DCQCN's ToR-Down buffer keeps growing with flow count (≥1 in-flight packet per flow); Floodgate converges to window x topology; ideal is ECN-insensitive", rows)
}

// Fig17 reproduces the parameter-selection sweeps: credit timer T
// (overhead, buffer, FCT) and the delayCredit threshold (buffer).
// Both sweeps' runs overlap through one pool submission.
func Fig17(o Options) []Table {
	timers := []int{10, 20, 30, 40, 50}
	mults := []int{1, 10, 25, 50, 75, 100}
	rows := runJobs(o, len(timers)+len(mults), func(idx int) []string {
		tp := o.leafSpine()
		bdp := baseBDPOf(tp)
		cfg := core.DefaultConfig(bdp)
		if idx < len(timers) {
			cfg.CreditTimer = units.Duration(timers[idx]) * units.Microsecond
		} else {
			cfg.DelayCreditThresh = units.ByteSize(mults[idx-len(timers)]) * bdp
		}
		c := cellOf(o, mixRun(o, tp, workload.WebServer, WithFloodgateCfg(DCQCN(o), cfg, "+Floodgate")))
		if idx < len(timers) {
			return slices.Concat([]string{fmt.Sprintf("%dus", timers[idx]), fmtRate(units.Rate(c.wire[stats.WireCredit], c.dur))},
				c.bufs(hops...), []string{fmtDur(c.poisson[0]), fmtDur(c.poisson[1])})
		}
		return append([]string{fmt.Sprintf("%dBDP", mults[idx-len(timers)])}, c.bufs(hops...)...)
	})
	tt := Table{
		Title:  "Fig 17a-c: credit timer T sweep (DCQCN+Floodgate, WebServer incastmix)",
		Header: []string{"T", "creditRate", "ToR-Up", "Core", "ToR-Down", "avgFCT", "p99FCT"},
		Rows:   rows[:len(timers)],
	}
	tt.Comment = "paper: larger T -> fewer credit bytes, smaller ToR-Up buffer but larger Core/ToR-Down and worse FCT; T=10us chosen"
	td := Table{
		Title:  "Fig 17d: delayCredit threshold sweep (x base BDP)",
		Header: []string{"thre_credit", "ToR-Up", "Core", "ToR-Down"},
		Rows:   rows[len(timers):],
	}
	td.Comment = "paper: core buffer lowest for 1-38 BDP and robust across the range; 10 BDP chosen"
	return []Table{tt, td}
}

// Fig18 reproduces the bandwidth stacking diagram: on-wire bytes split
// into data / ctrl (ACK+CNP) / credit classes for ideal vs practical
// Floodgate.
func Fig18(o Options) []Table {
	t := Table{
		Title:  "Fig 18: wire bandwidth by class (WebServer incastmix)",
		Header: []string{"scheme", "data", "ctrl", "credit", "credit share"},
	}
	mks := []func(tp *topo.Topology) Scheme{
		func(tp *topo.Topology) Scheme {
			cfg := core.IdealConfig(baseBDPOf(tp))
			cfg.PerDstPause = false
			return WithFloodgateCfg(DCQCN(o), cfg, "+ideal")
		},
		func(tp *topo.Topology) Scheme { return WithFloodgate(o, DCQCN(o), baseBDPOf(tp)) },
	}
	t.Rows = runJobs(o, len(mks), func(idx int) []string {
		tp := o.leafSpine()
		c := cellOf(o, mixRun(o, tp, workload.WebServer, mks[idx](tp)))
		row := []string{c.name}
		for _, b := range c.wire {
			row = append(row, fmtRate(units.Rate(b, c.dur)))
		}
		return append(row, fmt.Sprintf("%.3f%%", 100*c.share(stats.WireCredit)))
	})
	t.Comment = "paper: credits are 0.175% of bandwidth for Floodgate vs 3.0% for ideal; ctrl (ACK/CNP) ~4.5% for both"
	return []Table{t}
}

// Fig20 reproduces the BFC comparison: HPCC, HPCC+Floodgate and three
// BFC variants under Memcached and Web Server incast-mix.
func Fig20(o Options) []Table {
	cdfs := []*workload.CDF{workload.Memcached, workload.WebServer}
	mks := []func(tp *topo.Topology) Scheme{
		func(tp *topo.Topology) Scheme { return HPCC(o) },
		func(tp *topo.Topology) Scheme { return WithFloodgate(o, HPCC(o), baseBDPOf(tp)) },
		func(tp *topo.Topology) Scheme { return BFC(32, false, bfcThresh(tp)) },
		func(tp *topo.Topology) Scheme { return BFC(128, false, bfcThresh(tp)) },
		func(tp *topo.Topology) Scheme { return BFC(0, true, bfcThresh(tp)) },
	}
	rows := runJobs(o, len(cdfs)*len(mks), func(idx int) []string {
		tp := o.leafSpine()
		c := cellOf(o, mixRun(o, tp, cdfs[idx/len(mks)], mks[idx%len(mks)](tp)))
		return append(append([]string{c.name}, c.poissonQ...), fmtDur(c.poisson[0]))
	})
	return split("Fig 20: vs BFC, %s incastmix — Poisson flow FCT", []string{cdfs[0].Name, cdfs[1].Name},
		[]string{"scheme", "p50", "p90", "p99", "avg"},
		"paper: BFC-32Q/128Q suffer HOL via shared queues; BFC-ideal beats Floodgate on Memcached (INT overhead), loses on WebServer", rows)
}

// bfcThresh is BFC's per-queue pause threshold: one hop's BDP.
func bfcThresh(tp *topo.Topology) units.ByteSize {
	p := &tp.Node(tp.Hosts[0]).Ports[0]
	return p.BDP()
}

// Fig23 reproduces the NDP comparison (Appendix B): non-incast and
// incast FCT under Memcached and WebServer incast-mix.
func Fig23(o Options) []Table {
	cdfs := []*workload.CDF{workload.Memcached, workload.WebServer}
	const nSchemes = 3 // DCQCN, DCQCN+Floodgate, NDP
	rows := runJobs(o, len(cdfs)*nSchemes, func(idx int) []string {
		tp := o.leafSpine()
		c := cellOf(o, mixRun(o, tp, cdfs[idx/nSchemes], append(schemePair(o, DCQCN, tp), NDP(o))[idx%nSchemes]))
		return []string{c.name, fmtDur(c.poisson[0]), fmtDur(c.poisson[1]), fmtDur(c.fct[catIncast][0]), fmtDur(c.fct[catIncast][1]),
			fmt.Sprintf("%d", c.trims)}
	})
	return split("Fig 23: vs NDP, %s incastmix", []string{cdfs[0].Name, cdfs[1].Name},
		[]string{"scheme", "non-incast avg", "non-incast p99", "incast avg", "incast p99", "trims"},
		"paper: NDP beats DCQCN (small buffers) but loses to DCQCN+Floodgate — trimming hits non-incast flows and header bandwidth inflates incast FCT", rows)
}

// Fig24 reproduces the PFC w/ tag comparison (Appendix B) on the
// non-blocking and the 4:1 oversubscribed fabric.
func Fig24(o Options) []Table {
	oversubs := []int{1, 4}
	const nSchemes = 3 // DCQCN, DCQCN+Floodgate, DCQCN+PFC w/ tag
	rows := runJobs(o, len(oversubs)*nSchemes, func(idx int) []string {
		c := o.leafSpineConfig()
		c.Oversubscription = oversubs[idx/nSchemes]
		tp := c.Build()
		oneHop := tp.Node(tp.Hosts[0]).Ports[0].BDP()
		s := append(schemePair(o, DCQCN, tp), WithPFCTag(DCQCN(o), oneHop))[idx%nSchemes]
		r := cellOf(o, mixRun(o, tp, workload.WebServer, s))
		return []string{r.name, fmtDur(r.poisson[0]), fmtDur(r.poisson[1]), fmt.Sprintf("%d", r.voqs)}
	})
	return split("Fig 24: vs PFC w/ tag — %s", []string{"non-blocking", "4:1 oversubscribed"},
		[]string{"scheme", "avgFCT", "p99FCT", "maxVOQs"},
		"paper: comparable on non-blocking fabric but PFC w/ tag uses 10x more VOQs; Floodgate wins when the first hop congests (oversubscription)", rows)
}
