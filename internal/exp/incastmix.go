package exp

import (
	"fmt"

	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// fullIncastMixDuration is the paper-scale workload window for the
// §6.1 incast-mix experiments.
const fullIncastMixDuration = 4 * units.Millisecond

// incastDegree is the per-event incast fan-in: every cross-rack host
// participates (the Fig 14/15 convention; §6.1 does not fix a degree,
// and only an all-hosts fan-in reproduces the paper's multi-MB
// last-hop buffers).
func incastDegree(tp *topo.Topology) int { return len(incastSenders(tp)) }

// stressBuffer sizes the shared buffer to one incast event's volume.
// At paper scale the 20 MB buffer saturates because overlapping events
// and 160 hosts' first-BDP bursts compound; that amplification does
// not exist in scaled-down runs, so the PFC-storm-regime experiments
// (Fig 2, Fig 9, Table 2) instead pin the buffer to the event size,
// reproducing the paper's buffer-pressure ratio directly.
func stressBuffer(tp *topo.Topology) units.ByteSize {
	return units.ByteSize(incastDegree(tp)) * 35 * mtu
}

// baseBDPOf computes the fabric's base BDP for Floodgate thresholds
// (≈64 KB on the 2-tier fabric at any scale, by construction of the
// slow-motion model).
func baseBDPOf(tp *topo.Topology) units.ByteSize {
	h := tp.Node(tp.Hosts[0])
	rate := h.Ports[0].Rate
	rtt := 2 * 4 * (h.Ports[0].Prop + units.TxTime(mtu, rate))
	return units.BDP(rate, rtt)
}

// schemeTriple returns {base, base+ideal, base+Floodgate} for a CC.
func schemeTriple(o Options, base func(Options) Scheme, tp *topo.Topology) []Scheme {
	bdp := baseBDPOf(tp)
	return []Scheme{
		base(o),
		WithIdeal(o, base(o), bdp),
		WithFloodgate(o, base(o), bdp),
	}
}

// schemePair returns {base, base+Floodgate} for a CC.
func schemePair(o Options, base func(Options) Scheme, tp *topo.Topology) []Scheme {
	return []Scheme{base(o), WithFloodgate(o, base(o), baseBDPOf(tp))}
}

// Fig8 reproduces the average and 99th-tail FCT of Poisson flows under
// incast-mix, for each congestion control × {plain, +ideal,
// +Floodgate} × workload. ccName filters to one CC ("DCQCN", "TIMELY",
// "HPCC") or "" for all.
func Fig8(o Options, ccName string) []Table {
	bases := map[string]func(Options) Scheme{"DCQCN": DCQCN, "TIMELY": TIMELY, "HPCC": HPCC}
	var order []string
	for _, cc := range []string{"DCQCN", "TIMELY", "HPCC"} {
		if ccName == "" || cc == ccName {
			order = append(order, cc)
		}
	}
	// Flatten every (cc × workload × scheme) run into one pool
	// submission; per-CC tables slice the rows back out in order.
	nW, nS := len(workload.Workloads), 3
	perCC := nW * nS
	rows := runJobs(o, len(order)*perCC, func(idx int) []string {
		cc := order[idx/perCC]
		cdf := workload.Workloads[(idx%perCC)/nS]
		tp := o.leafSpine()
		s := schemeTriple(o, bases[cc], tp)[idx%nS]
		res := Run(stormRun(o, tp, cdf, s))
		avg, p99 := stats.FCTStats(res.Stats.PoissonFCTs())
		return []string{cdf.Name, s.Name, fmtDur(avg), fmtDur(p99),
			fmt.Sprintf("%d/%d", res.Completed, res.Total)}
	})
	var tables []Table
	for ci, cc := range order {
		t := Table{
			Title:  fmt.Sprintf("Fig 8 (%s): avg/p99 FCT of Poisson flows, incastmix", cc),
			Header: []string{"workload", "scheme", "avgFCT", "p99FCT", "flows"},
			Rows:   rows[ci*perCC : (ci+1)*perCC],
		}
		t.Comment = "paper: Floodgate cuts avg FCT 10.1%-98.1%, p99 1.1x-207x (largest on Memcached/WebServer)"
		tables = append(tables, t)
	}
	return tables
}

// Fig9 reproduces the per-category FCT CDFs (incast, victim of incast,
// victim of PFC) under the Web Server incast-mix.
func Fig9(o Options) []Table {
	return runJobs(o, 3, func(idx int) Table {
		tp := o.leafSpine()
		s := schemeTriple(o, DCQCN, tp)[idx]
		res := Run(stormRun(o, tp, workload.WebServer, s))
		t := Table{
			Title:  "Fig 9: FCT CDF by category, Web Server incastmix — " + s.Name,
			Header: []string{"category", "p50", "p90", "p99", "n"},
		}
		for _, cat := range []stats.Category{stats.CatIncast, stats.CatVictimIncast, stats.CatVictimPFC} {
			xs, ys := stats.CDF(res.Stats.FCTs(cat), 100)
			t.AddRow(cat.String(), pickQ(xs, ys, 0.5), pickQ(xs, ys, 0.9), pickQ(xs, ys, 0.99),
				fmt.Sprintf("%d", len(res.Stats.FCTs(cat))))
		}
		t.Comment = "paper: Floodgate removes the HOL-blocking tail for both victim classes without hurting incast flows"
		return t
	})
}

func pickQ(xs []units.Duration, ys []float64, q float64) string {
	for i, y := range ys {
		if y >= q {
			return fmtDur(xs[i])
		}
	}
	if len(xs) == 0 {
		return "n/a"
	}
	return fmtDur(xs[len(xs)-1])
}

// Fig10 reproduces maximum switch buffer occupancy across workloads.
func Fig10(o Options) []Table {
	t := Table{
		Title:  "Fig 10: maximum switch buffer occupancy, incastmix",
		Header: []string{"workload", "scheme", "maxSwitchBuf", "vs plain"},
	}
	// The "vs plain" column needs each workload's first (plain) result,
	// so jobs return raw buffers and the ratio is computed at assembly.
	type fig10Res struct {
		cdf, scheme string
		buf         units.ByteSize
	}
	results := runJobs(o, len(workload.Workloads)*3, func(idx int) fig10Res {
		cdf := workload.Workloads[idx/3]
		tp := o.leafSpine()
		s := schemeTriple(o, DCQCN, tp)[idx%3]
		res := Run(mixRun(o, tp, cdf, s))
		return fig10Res{cdf.Name, s.Name, res.Stats.MaxSwitchBuffer()}
	})
	for ci := range workload.Workloads {
		var plain float64
		for si := 0; si < 3; si++ {
			r := results[ci*3+si]
			if plain == 0 {
				plain = float64(r.buf)
			}
			t.AddRow(r.cdf, r.scheme, fmtBytes(r.buf), fmtRatio(plain, float64(r.buf)))
		}
	}
	t.Comment = "paper: Floodgate reduces max buffer 2.4x-3.7x; ideal reduces it further"
	return []Table{t}
}

// Table2 reproduces the PFC triggered time per fabric layer for plain
// DCQCN (Floodgate rows are included to show zero).
func Table2(o Options) []Table {
	t := Table{
		Title:  "Table 2: PFC triggered time (DCQCN), incastmix",
		Header: []string{"workload", "scheme", "Host", "ToR", "Core"},
	}
	t.Rows = runJobs(o, len(workload.Workloads)*2, func(idx int) []string {
		cdf := workload.Workloads[idx/2]
		tp := o.leafSpine()
		s := schemePair(o, DCQCN, tp)[idx%2]
		res := Run(stormRun(o, tp, cdf, s))
		return []string{cdf.Name, s.Name,
			fmtDur(res.Stats.PFCPauseTime(topo.LayerHost)),
			fmtDur(res.Stats.PFCPauseTime(topo.LayerToR)),
			fmtDur(res.Stats.PFCPauseTime(topo.LayerCore))}
	})
	t.Comment = "paper: DCQCN pauses cores on every workload (frame storm on Web Server); Floodgate triggers no PFC"
	return []Table{t}
}

// Fig11 reproduces the per-hop buffer reallocation (a) and queuing
// time split (b) for Web Server and Hadoop.
func Fig11(o Options) []Table {
	cdfs := []*workload.CDF{workload.WebServer, workload.Hadoop}
	type fig11Rows struct{ a, b []string }
	rows := runJobs(o, len(cdfs)*3, func(idx int) fig11Rows {
		cdf := cdfs[idx/3]
		tp := o.leafSpine()
		s := schemeTriple(o, DCQCN, tp)[idx%3]
		res := Run(stormRun(o, tp, cdf, s))
		return fig11Rows{
			a: append([]string{s.Name}, bufCells(res, hops...)...),
			b: []string{s.Name,
				fmtDur(res.Stats.AvgQueueDelay(topo.ClassToRUp)),
				fmtDur(res.Stats.AvgQueueDelay(topo.ClassCore)),
				fmtDur(res.Stats.AvgQueueDelay(topo.ClassToRDown))},
		}
	})
	var tables []Table
	for ci, cdf := range cdfs {
		a := Table{
			Title:  "Fig 11a: max per-port buffer by hop — " + cdf.Name,
			Header: []string{"scheme", "ToR-Up", "Core", "ToR-Down"},
		}
		b := Table{
			Title:  "Fig 11b: avg queuing time of non-incast flows by hop — " + cdf.Name,
			Header: []string{"scheme", "ToR-Up", "Core", "ToR-Down"},
		}
		for si := 0; si < 3; si++ {
			a.AddRow(rows[ci*3+si].a...)
			b.AddRow(rows[ci*3+si].b...)
		}
		a.Comment = "paper: Floodgate shifts buffer from Core/ToR-Down to ToR-Up (source-side taming)"
		b.Comment = "paper: queuing time at every hop shrinks; parked incast bytes do not delay non-incast flows"
		tables = append(tables, a, b)
	}
	return tables
}

// Fig21 reproduces the appendix A.1 result: incast flows' own FCT is
// not hurt by Floodgate.
func Fig21(o Options) []Table {
	t := Table{
		Title:  "Fig 21: FCT of incast flows under incastmix",
		Header: []string{"workload", "scheme", "avgFCT", "p99FCT"},
	}
	t.Rows = runJobs(o, len(workload.Workloads)*3, func(idx int) []string {
		cdf := workload.Workloads[idx/3]
		tp := o.leafSpine()
		s := schemeTriple(o, DCQCN, tp)[idx%3]
		res := Run(stormRun(o, tp, cdf, s))
		avg, p99 := stats.FCTStats(res.Stats.FCTs(stats.CatIncast))
		return []string{cdf.Name, s.Name, fmtDur(avg), fmtDur(p99)}
	})
	t.Comment = "paper: Floodgate leaves incast FCT intact (slight gain); ideal trades a bit of incast FCT for victims"
	return []Table{t}
}

// Fig22 reproduces appendix A.2: pure Poisson traffic (no incast) —
// Floodgate must not hurt.
func Fig22(o Options) []Table {
	t := Table{
		Title:  "Fig 22: avg/p99 FCT under pure Poisson (no incast)",
		Header: []string{"workload", "scheme", "avgFCT", "p99FCT", "VOQs"},
	}
	t.Rows = runJobs(o, len(workload.Workloads)*3, func(idx int) []string {
		cdf := workload.Workloads[idx/3]
		tp := o.leafSpine()
		s := schemeTriple(o, DCQCN, tp)[idx%3]
		res := Run(poissonRun(o, tp, cdf, s))
		avg, p99 := stats.FCTStats(res.Stats.AllFCTs())
		return []string{cdf.Name, s.Name, fmtDur(avg), fmtDur(p99),
			fmt.Sprintf("%d", res.Stats.MaxVOQInUse)}
	})
	t.Comment = "paper: no false incast identification; Floodgate FCT == DCQCN, ideal slightly worse (credit overhead)"
	return []Table{t}
}
