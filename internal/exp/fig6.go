package exp

import (
	"floodgate/internal/cc"
	"floodgate/internal/core"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Fig6 reproduces the §5.2 testbed experiment in simulation: one core
// switch, three ToRs, two hosts each at 10/20 Gbps (base BDP 45 KB).
// Four cross-rack sources send BDP-sized incast flows to one
// destination while Poisson flows (Web Server) run among the other
// hosts; hosts use the plain per-flow window (the testbed emulated
// only DCQCN's first-RTT behaviour). Reported: non-incast FCT and
// per-hop max buffer, with and without Floodgate.
func Fig6(o Options) []Table {
	fct := Table{
		Title:  "Fig 6a: testbed FCT of non-incast flows",
		Header: []string{"scheme", "avgFCT", "p99FCT", "victimAvg", "victimP99"},
	}
	buf := Table{
		Title:  "Fig 6b: testbed max per-port buffer",
		Header: []string{"scheme", "ToR-Up", "Core", "ToR-Down"},
	}
	cells := runJobs(o, 2, func(idx int) *cell {
		withFG := idx == 1
		tp := topo.DefaultTestbed().Build()
		bdp := units.BDP(10*units.Gbps, 8*4500*units.Nanosecond) // 45KB
		s := Scheme{Name: "w/o Floodgate", CC: cc.NewFixedWindow(), cc: fixedWindow}
		if withFG {
			s = WithFloodgateCfg(Scheme{Name: "w/", CC: cc.NewFixedWindow(), cc: fixedWindow},
				core.DefaultConfig(bdp), " Floodgate")
		}
		dur := o.duration(20 * units.Millisecond)
		r := sim.NewRand(o.Seed)
		dst := tp.Hosts[len(tp.Hosts)-1]
		// Periodic cross-rack BDP-sized incast from the four hosts in the
		// other two racks.
		incast := workload.Incast(workload.IncastConfig{
			Dst: dst, Senders: incastSenders(tp),
			Degree: 4, MinSize: bdp, MaxSize: bdp + 1,
			Load: 0.5, DstRate: 10 * units.Gbps, Until: dur,
		}, r.Fork())
		poisson := workload.Poisson(workload.PoissonConfig{
			CDF: workload.WebServer, Load: 0.8,
			Hosts: tp.Hosts, HostRate: 10 * units.Gbps,
			ExcludeDst: map[topoNodeID]bool{dst: true},
			Until:      dur,
			Categorize: workload.RackVictimCategorizer(tp, dst),
		}, r.Fork())
		testbed := o
		testbed.Scale = 1 // the testbed runs at its own full scale
		return cellOf(o, RunConfig{
			Topo: tp, Scheme: s,
			Specs:      workload.Merge(poisson, incast),
			Duration:   dur,
			Seed:       o.Seed,
			Opt:        testbed,
			BufferSize: 2 * units.MB, // software-switch buffer
		})
	})
	for _, c := range cells {
		v := c.fct[stats.CatVictimIncast]
		fct.AddRow(c.name, fmtDur(c.poisson[0]), fmtDur(c.poisson[1]), fmtDur(v[0]), fmtDur(v[1]))
		buf.AddRow(append([]string{c.name}, c.bufs(hops...)...)...)
	}
	fct.Comment = "paper: avg FCT -30.6%, p99 1.6x lower; at simulated line rates the HOL term is below Poisson noise (see EXPERIMENTS.md)"
	buf.Comment = "paper: ToR-Down 17.2x and Core 1.8x smaller; ToR-Up slightly larger (source-side taming)"
	return []Table{fct, buf}
}
