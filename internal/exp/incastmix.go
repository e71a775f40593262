package exp

import (
	"fmt"
	"slices"
	"sync"

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

// stormCell is one §6.1 storm run, keyed by CC, workload and index in
// schemeTriple. Fig 8, Fig 9, Table 2, Fig 11 and Fig 21 are views over
// a grid of them: a cell is simulated at most once per RunExperiments
// batch (Options.grid), or once per view when an experiment runs alone,
// and keeps only the rendered reductions the views read.
type stormCell struct {
	cdf             *workload.CDF
	name, flows     string                        // scheme; flows done/total
	poisson, incast []string                      // avg, p99 FCT
	cats            [stats.NumCategories][]string // category; 100-point CDF p50, p90, p99; n
	pfc, buf, queue []string                      // PFC time per layer; max buffer, queuing per hop
}

// stormCells returns the cells of ccs × cdfs × schemes in that order. It
// simulates on the pool the cells no view has claimed, then waits,
// holding no slot, for those another experiment is computing; a cell
// whose run failed raises its panic in every view that reads it. Under
// -obs the experiment label joins a cell's key, so every experiment
// still writes its own run files.
func stormCells(o Options, cdfs []*workload.CDF, schemes []int, ccs ...func(Options) Scheme) []*stormCell {
	grid, label := o.grid, ""
	if grid == nil {
		grid = new(sync.Map)
	}
	if o.Obs.Enabled() {
		label = o.Obs.experiment()
	}
	var memos []*memo[*stormCell]
	var own []func()
	for _, base := range ccs {
		cc := base(o).Name
		for _, cdf := range cdfs {
			for _, si := range schemes {
				m, mine := claimMemo[*stormCell](grid, fmt.Sprint(cc, "/", cdf.Name, "/", si, "/", label))
				if mine {
					own = append(own, func() { m.fill(func() *stormCell { return newStormCell(o, base, cdf, si) }) })
				}
				memos = append(memos, m)
			}
		}
	}
	runJobs(o, len(own), func(i int) struct{} { own[i](); return struct{}{} })
	cells := make([]*stormCell, len(memos))
	for i, m := range memos {
		cells[i] = m.wait()
	}
	return cells
}

// newStormCell simulates the cell and reduces it.
func newStormCell(o Options, base func(Options) Scheme, cdf *workload.CDF, scheme int) *stormCell {
	tp := o.leafSpine()
	res := Run(stormRun(o, tp, cdf, schemeTriple(o, base, tp)[scheme]))
	st := res.Stats
	c := &stormCell{cdf: cdf, name: res.Scheme, flows: fmt.Sprintf("%d/%d", res.Completed, res.Total)}
	// Each category is sorted once and Poisson merges the two victim
	// classes: one sort of the run's samples in all.
	var byCat [stats.NumCategories][]units.Duration
	for cat := range byCat {
		ds := sortedFCTs(st.FCTs(stats.Category(cat)))
		xs, ys := stats.CDF(ds, 100)
		c.cats[cat] = []string{stats.Category(cat).String(), pickQ(xs, ys, 0.5), pickQ(xs, ys, 0.9), pickQ(xs, ys, 0.99), fmt.Sprint(len(ds))}
		byCat[cat] = ds
	}
	c.poisson = fctCells(mergeSorted(byCat[stats.CatVictimIncast], byCat[stats.CatVictimPFC]))
	c.incast = fctCells(byCat[stats.CatIncast])
	c.pfc = []string{fmtDur(st.PFCPauseTime(topo.LayerHost)), fmtDur(st.PFCPauseTime(topo.LayerToR)), fmtDur(st.PFCPauseTime(topo.LayerCore))}
	c.buf = bufCells(res, hops...)
	for _, h := range hops {
		c.queue = append(c.queue, fmtDur(st.AvgQueueDelay(h)))
	}
	return c
}

// sortedFCTs returns the samples' FCTs in ascending order.
func sortedFCTs(samples []stats.FCTSample) []units.Duration {
	ds := make([]units.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.FCT
	}
	slices.Sort(ds)
	return ds
}

// mergeSorted merges two ascending lists into one.
func mergeSorted(a, b []units.Duration) []units.Duration {
	out := make([]units.Duration, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// fctCells renders sorted FCTs' average and p99 as stats.FCTStats does.
func fctCells(sorted []units.Duration) []string {
	var sum units.Duration
	for _, d := range sorted {
		sum += d
	}
	return []string{fmtDur(sum / units.Duration(max(len(sorted), 1))), fmtDur(stats.Percentile(sorted, 0.99))}
}

// stormTable is a table with one row per cell: workload, scheme, then
// the cell's cols.
func stormTable(title string, cols []string, comment string, cells []*stormCell, row func(*stormCell) []string) Table {
	t := Table{Title: title, Header: append([]string{"workload", "scheme"}, cols...), Comment: comment}
	for _, c := range cells {
		t.AddRow(append([]string{c.cdf.Name, c.name}, row(c)...)...)
	}
	return t
}

// Fig8 reproduces the average and 99th-tail FCT of Poisson flows under
// incast-mix, for each congestion control × {plain, +ideal,
// +Floodgate} × workload.
func Fig8(o Options) []Table {
	ccs := []func(Options) Scheme{DCQCN, TIMELY, HPCC}
	cells := stormCells(o, workload.Workloads, []int{0, 1, 2}, ccs...)
	per := len(cells) / len(ccs)
	var tables []Table
	for i, base := range ccs {
		tables = append(tables, stormTable(fmt.Sprintf("Fig 8 (%s): avg/p99 FCT of Poisson flows, incastmix", base(o).Name),
			[]string{"avgFCT", "p99FCT", "flows"},
			"paper: Floodgate cuts avg FCT 10.1%-98.1%, p99 1.1x-207x (largest on Memcached/WebServer)",
			cells[i*per:(i+1)*per], func(c *stormCell) []string { return []string{c.poisson[0], c.poisson[1], c.flows} }))
	}
	return tables
}

// Fig9 reproduces the per-category FCT CDFs (incast, victim of incast,
// victim of PFC) under the Web Server incast-mix.
func Fig9(o Options) []Table {
	var tables []Table
	for _, c := range stormCells(o, []*workload.CDF{workload.WebServer}, []int{0, 1, 2}, DCQCN) {
		tables = append(tables, Table{
			Title:   "Fig 9: FCT CDF by category, Web Server incastmix — " + c.name,
			Header:  []string{"category", "p50", "p90", "p99", "n"},
			Rows:    c.cats[:],
			Comment: "paper: Floodgate removes the HOL-blocking tail for both victim classes without hurting incast flows",
		})
	}
	return tables
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
	return []Table{stormTable("Table 2: PFC triggered time (DCQCN), incastmix", []string{"Host", "ToR", "Core"},
		"paper: DCQCN pauses cores on every workload (frame storm on Web Server); Floodgate triggers no PFC",
		stormCells(o, workload.Workloads, []int{0, 2}, DCQCN), func(c *stormCell) []string { return c.pfc })}
}

// Fig11 reproduces the per-hop buffer reallocation (a) and queuing
// time split (b) for Web Server and Hadoop.
func Fig11(o Options) []Table {
	cells := stormCells(o, []*workload.CDF{workload.WebServer, workload.Hadoop}, []int{0, 1, 2}, DCQCN)
	var tables []Table
	for i := 0; i < len(cells); i += 3 {
		a := Table{
			Title:   "Fig 11a: max per-port buffer by hop — " + cells[i].cdf.Name,
			Header:  []string{"scheme", "ToR-Up", "Core", "ToR-Down"},
			Comment: "paper: Floodgate shifts buffer from Core/ToR-Down to ToR-Up (source-side taming)",
		}
		b := Table{
			Title:   "Fig 11b: avg queuing time of non-incast flows by hop — " + cells[i].cdf.Name,
			Header:  a.Header,
			Comment: "paper: queuing time at every hop shrinks; parked incast bytes do not delay non-incast flows",
		}
		for _, c := range cells[i : i+3] {
			a.AddRow(append([]string{c.name}, c.buf...)...)
			b.AddRow(append([]string{c.name}, c.queue...)...)
		}
		tables = append(tables, a, b)
	}
	return tables
}

// Fig21 reproduces the appendix A.1 result: incast flows' own FCT is
// not hurt by Floodgate.
func Fig21(o Options) []Table {
	return []Table{stormTable("Fig 21: FCT of incast flows under incastmix", []string{"avgFCT", "p99FCT"},
		"paper: Floodgate leaves incast FCT intact (slight gain); ideal trades a bit of incast FCT for victims",
		stormCells(o, workload.Workloads, []int{0, 1, 2}, DCQCN), func(c *stormCell) []string { return c.incast })}
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
