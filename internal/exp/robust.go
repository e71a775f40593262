package exp

import (
	"fmt"
	"slices"

	"floodgate/internal/core"
	"floodgate/internal/fault"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Fig12 reproduces the §6.2 loss-robustness experiment: Floodgate's
// PSN/switchSYN recovery under 5% and 10% manufactured drops on
// switch-to-switch links. Reported: delivered throughput over time —
// the shape to check is that goodput stays near the lossless level.
func Fig12(o Options) []Table {
	t := Table{
		Title:  "Fig 12: throughput under injected credit loss (DCQCN+Floodgate)",
		Header: []string{"lossRate", "avg goodput", "vs lossless", "drops", "completed"},
	}
	// The "vs lossless" column needs the loss=0 run, so jobs return raw
	// measurements and ratios are computed at assembly. The first three
	// rows are the paper's uniform credit loss; the last two replay the
	// same rates as Gilbert–Elliott bursts (robustness extension) —
	// bursty loss is the harder case for timer-aggregated credits since
	// a whole aggregation window can vanish at once.
	type fig12Case struct {
		label   string
		uniform float64 // uniform credit loss rate
		burst   float64 // GE mean loss on all fabric links (0 = off)
	}
	cases := []fig12Case{
		{"0%", 0, 0},
		{"5%", 0.05, 0},
		{"10%", 0.10, 0},
		{"5% burst (GE)", 0, 0.05},
		{"10% burst (GE)", 0, 0.10},
	}
	type fig12Res struct {
		goodput          units.BitRate
		drops            int64
		completed, total int
	}
	results := runJobs(o, len(cases), func(idx int) fig12Res {
		c := cases[idx]
		tp := o.leafSpine()
		rc := mixRun(o, tp, workload.WebServer, WithFloodgate(o, DCQCN(o), baseBDPOf(tp)))
		rc.CreditLossRate = c.uniform
		rc.Drain = 10 * rc.Duration
		if c.burst > 0 {
			rc.Faults = &fault.Plan{Burst: fault.BurstWithMeanLoss(c.burst)}
		}
		res := Run(rc)
		var rx units.ByteSize
		for _, cat := range []stats.Category{stats.CatIncast, stats.CatVictimIncast, stats.CatVictimPFC} {
			for _, b := range res.Stats.RxSeries(cat) {
				rx += b
			}
		}
		return fig12Res{units.Rate(rx, rc.Duration), res.Stats.Drops, res.Completed, res.Total}
	})
	lossless := float64(results[0].goodput)
	for i, c := range cases {
		r := results[i]
		t.AddRow(c.label, fmtRate(r.goodput),
			fmtRatio(float64(r.goodput), lossless),
			fmt.Sprintf("%d", r.drops),
			fmt.Sprintf("%d/%d", r.completed, r.total))
	}
	t.Comment = "paper: 5% loss has no visible effect; 10% fluctuates slightly — switch windows recover via PSN credits; GE rows burst the same mean loss"
	return []Table{t}
}

// Fig13 reproduces the 8-ary fat-tree experiment: FCT for Memcached
// and Hadoop plus Hadoop's per-hop buffer occupancy across the five
// port classes.
func Fig13(o Options) []Table {
	tp := o.fatTree()
	bdp := units.BDP(tp.Node(tp.Hosts[0]).Ports[0].Rate,
		2*6*(tp.Node(tp.Hosts[0]).Ports[0].Prop+units.TxTime(mtu, tp.Node(tp.Hosts[0]).Ports[0].Rate)))
	schemes := []Scheme{
		DCQCN(o),
		WithIdeal(o, DCQCN(o), bdp),
		WithFloodgate(o, DCQCN(o), bdp),
	}
	fct := Table{
		Title:  "Fig 13a: fat tree (k=8) avg/p99 FCT of Poisson flows",
		Header: []string{"workload", "scheme", "avgFCT", "p99FCT"},
	}
	buf := Table{
		Title:  "Fig 13b: fat tree per-hop max buffer — Hadoop",
		Header: []string{"scheme", "Edge-Up", "Agg-Up", "Core", "Agg-Down", "Edge-Down"},
	}
	cdfs := []*workload.CDF{workload.Memcached, workload.Hadoop}
	// All six runs share one built fat tree: Topology is immutable
	// after Build() (see topo.Topology), so concurrent runs only read it.
	cells := runJobs(o, len(cdfs)*len(schemes), func(idx int) *cell {
		return cellOf(o, mixRun(o, tp, cdfs[idx/len(schemes)], schemes[idx%len(schemes)]))
	})
	for i, c := range cells {
		cdf := cdfs[i/len(schemes)]
		fct.AddRow(cdf.Name, c.name, fmtDur(c.poisson[0]), fmtDur(c.poisson[1]))
		if cdf == workload.Hadoop {
			buf.AddRow(append([]string{c.name}, c.bufs(topo.ClassToRUp, topo.ClassAggUp,
				topo.ClassCore, topo.ClassAggDown, topo.ClassToRDown)...)...)
		}
	}
	fct.Comment = "paper: Floodgate still wins, by less than in 2-tier (fewer hosts per rack, fewer victims)"
	buf.Comment = "paper: buffer shifts toward Edge-Up; aggregation points relieved"
	return []Table{fct, buf}
}

// Fig14 reproduces the ToR-scaling experiment: pure incast (every
// cross-rack host sends one 30–40 MTU flow) as the fabric grows to
// 20/40/60/80 ToRs. Reported: per-hop max buffer for DCQCN and
// DCQCN+Floodgate.
func Fig14(o Options) []Table {
	torCounts := []int{20, 40, 60, 80}
	rows := runJobs(o, 2*len(torCounts), func(idx int) []string {
		tors := torCounts[idx%len(torCounts)]
		c := o.leafSpineConfig()
		c.ToRs = tors
		tp := c.Build()
		r := cellOf(o, RunConfig{
			Topo: tp, Scheme: schemePair(o, DCQCN, tp)[idx/len(torCounts)],
			Specs:    burstSpecs(tp, o.Seed, incastSenders(tp)),
			Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
			Drain: 100 * units.Millisecond,
		})
		return slices.Concat([]string{fmt.Sprintf("%d", tors)}, r.bufs(hops...), []string{fmtBytes(r.maxBuf)})
	})
	return split("Fig 14: buffer vs fabric size (pure incast) — %s", []string{"DCQCN", "DCQCN+Floodgate"},
		[]string{"#ToR", "ToR-Up", "Core", "ToR-Down", "maxSwitch"},
		"paper: DCQCN's ToR-Down grows with #flows (PFC at 20+ ToRs); Floodgate stays flat (delayCredit caps cores)", rows)
}

// Fig15 reproduces successive incast: K back-to-back all-host incasts
// to distinct destinations, comparing DCQCN, practical Floodgate and
// Floodgate with per-dst PAUSE.
func Fig15(o Options) []Table {
	names := []string{"DCQCN", "DCQCN+Floodgate", "DCQCN+Floodgate (per-dst PAUSE)"}
	counts := []int{4, 8, 12, 16, 20, 24}
	rows := runJobs(o, len(names)*len(counts), func(idx int) []string {
		times := counts[idx%len(counts)]
		tp := o.leafSpine()
		perDst := core.DefaultConfig(baseBDPOf(tp))
		perDst.PerDstPause = true
		s := append(schemePair(o, DCQCN, tp),
			WithFloodgateCfg(DCQCN(o), perDst, "+Floodgate (per-dst PAUSE)"))[idx/len(counts)]
		hostRate := tp.Node(tp.Hosts[0]).Ports[0].Rate
		// Gap = nominal drain time of one event, so events pile up.
		event := units.ByteSize(len(tp.Hosts)-1) * 35 * mtu
		gap := units.TxTime(event, hostRate) / 4 // successive: events arrive faster than they drain
		specs := workload.SuccessiveIncast(tp.Hosts, times, gap, 30*mtu, 40*mtu, sim.NewRand(o.Seed))
		c := cellOf(o, RunConfig{
			Topo: tp, Scheme: s, Specs: specs,
			Duration: units.Duration(times+2) * gap,
			Drain:    200 * units.Millisecond,
			Seed:     o.Seed, Opt: o,
			BufferSize: stressBuffer(tp), // the storm regime (see stressBuffer)
		})
		return append([]string{fmt.Sprintf("%d", times)}, c.bufs(hops...)...)
	})
	return split("Fig 15: successive incast — %s", names, []string{"#incasts", "ToR-Up", "Core", "ToR-Down"},
		"paper: DCQCN fills ToR-Down/Core (storm by 12 incasts); Floodgate's ToR-Up grows with #incasts; per-dst PAUSE keeps everything tiny", rows)
}
