package exp

import (
	"fmt"

	"floodgate/internal/stats"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Fig2 reproduces the realtime-throughput motivation experiment:
// Web Server incast-mix under DCQCN with and without Floodgate, with
// received throughput split into incast flows, victims of incast
// (same destination rack) and victims of PFC (everything else). The
// table reports coarse time bins; the headline observations are the
// victim-of-incast delivery delay and the victim-of-PFC dip without
// Floodgate.
func Fig2(o Options) []Table {
	// One job per scheme, each building its own topology and run; the
	// per-scheme tables assemble in submission order. With forensics on,
	// each scheme also yields an FCT attribution table.
	groups := runJobs(o, 2, func(idx int) []Table {
		tp := o.leafSpine()
		s := schemePair(o, DCQCN, tp)[idx]
		res := Run(stormRun(o, tp, workload.WebServer, s))
		t := Table{
			Title:  "Fig 2: realtime throughput, WebServer incastmix — " + s.Name,
			Header: []string{"bin", "incast", "victim-of-incast", "victim-of-PFC"},
		}
		inc := res.Stats.RxThroughput(stats.CatIncast)
		vi := res.Stats.RxThroughput(stats.CatVictimIncast)
		vp := res.Stats.RxThroughput(stats.CatVictimPFC)
		bins := max(len(inc), len(vi), len(vp))
		// Aggregate into at most 16 coarse rows.
		step := bins/16 + 1
		for b := 0; b < bins; b += step {
			t.AddRow(
				fmt.Sprintf("%v", units.Time(b)*units.Time(res.Stats.BinWidth())),
				fmtRate(avgRate(inc, b, step)),
				fmtRate(avgRate(vi, b, step)),
				fmtRate(avgRate(vp, b, step)))
		}
		// Delay until the first victim-of-incast byte is delivered — the
		// paper's "1.8 ms" HOL-blocking observation.
		firstVictim := units.Duration(-1)
		for b, r := range vi {
			if r > 0 {
				firstVictim = units.Duration(b) * res.Stats.BinWidth()
				break
			}
		}
		t.Comment = fmt.Sprintf("first victim-of-incast delivery at %v; paper: 1.8ms w/o Floodgate, immediate with", firstVictim)
		out := []Table{t}
		if res.Forensics != nil {
			out = append(out, AttributionTable("Fig 2: FCT time budget — "+s.Name, res.Forensics))
		}
		return out
	})
	var tables []Table
	for _, g := range groups {
		tables = append(tables, g...)
	}
	return tables
}

func avgRate(series []units.BitRate, from, n int) units.BitRate {
	var sum units.BitRate
	c := 0
	for i := from; i < from+n && i < len(series); i++ {
		sum += series[i]
		c++
	}
	if c == 0 {
		return 0
	}
	return sum / units.BitRate(c)
}
