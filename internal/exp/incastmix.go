package exp

import (
	"fmt"
	"slices"

	"floodgate/internal/core"
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

// cell is the reduction of one run that every view of it reads: Fig 8,
// Fig 9, Table 2, Fig 11 and Fig 21 read the §6 storm-regime runs; Fig
// 10, 17, 18, 20, 22, 23, 24, the ablation, compat, resource and swift
// the §6 incast-mix and pure-Poisson ones; Fig 6, 13, 14, 15 and degree
// their own. cellOf computes a run's cell once per batch. It keeps
// numbers and a few rendered CDF picks, never the samples: a scale-1
// storm run has millions of flows.
type cell struct {
	name, flows  string                                 // scheme; flows done/total
	dur          units.Duration                         // workload window, for rates
	fct          [stats.NumCategories][2]units.Duration // avg and p99 FCT by category
	poisson, all [2]units.Duration                      // the same of Poisson (victim) flows, of every flow
	poissonQ     []string                               // Poisson flows' 200-point CDF p50, p90, p99 (Fig 20)
	cats         [stats.NumCategories][]string          // category; 100-point CDF p50, p90, p99; n (Fig 9)
	pfc          [topo.LayerCore + 1]units.Duration
	buf          [topo.NumPortClasses]units.ByteSize // max per-port buffer by class
	queue        [topo.NumPortClasses]units.Duration // avg queuing delay by class
	maxBuf       units.ByteSize                      // max per-switch buffer
	wire         [stats.NumWireClasses]units.ByteSize
	voqs         int   // peak VOQs in use on one switch
	trims        int64 // NDP trims
	windows      int   // peak Floodgate window entries on one switch
}

// cellOf returns rc's cell, simulating rc only if no job of the batch
// has claimed its key (reduced). Call it from a runJobs job.
func cellOf(o Options, rc RunConfig) *cell { return reduced(o, "cell", rc, newCell) }

// newCell reduces a run. Each category is sorted once and the merged
// lists come from merging sorted ones: one sort of the run's samples.
func newCell(res *RunResult) *cell {
	st := res.Stats
	c := &cell{name: res.Scheme, flows: fmt.Sprintf("%d/%d", res.Completed, res.Total), dur: res.Duration,
		maxBuf: st.MaxSwitchBuffer(), voqs: st.MaxVOQInUse, trims: st.Trims}
	var byCat [stats.NumCategories][]units.Duration
	for cat := range byCat {
		ds := sortedFCTs(st.FCTs(stats.Category(cat)))
		xs, ys := stats.CDF(ds, 100)
		c.cats[cat] = []string{stats.Category(cat).String(), pickQ(xs, ys, 0.5), pickQ(xs, ys, 0.9), pickQ(xs, ys, 0.99), fmt.Sprint(len(ds))}
		byCat[cat], c.fct[cat] = ds, fctStats(ds)
	}
	poisson := mergeSorted(byCat[stats.CatVictimIncast], byCat[stats.CatVictimPFC])
	xs, ys := stats.CDF(poisson, 200)
	c.poissonQ = []string{pickQ(xs, ys, 0.5), pickQ(xs, ys, 0.9), pickQ(xs, ys, 0.99)}
	c.poisson = fctStats(poisson)
	c.all = fctStats(mergeSorted(poisson, byCat[stats.CatIncast]))
	for l := range c.pfc {
		c.pfc[l] = st.PFCPauseTime(topo.Layer(l))
	}
	for pc := range c.buf {
		c.buf[pc], c.queue[pc] = st.MaxClassBuffer(topo.PortClass(pc)), st.AvgQueueDelay(topo.PortClass(pc))
	}
	for w := range c.wire {
		c.wire[w] = st.WireTotal(stats.WireClass(w))
	}
	for _, n := range res.Cluster.Nets {
		for _, sw := range n.Switches {
			if sw == nil {
				continue
			}
			if m, ok := sw.FC().(*core.Module); ok {
				c.windows = max(c.windows, m.MaxWindows())
			}
		}
	}
	return c
}

// bufs renders the cell's max per-port buffer for each class.
func (c *cell) bufs(classes ...topo.PortClass) []string {
	cells := make([]string, len(classes))
	for i, pc := range classes {
		cells[i] = fmtBytes(c.buf[pc])
	}
	return cells
}

// share is wire class w's share of the cell's bytes on the wire.
func (c *cell) share(w stats.WireClass) float64 {
	var total units.ByteSize
	for _, b := range c.wire {
		total += b
	}
	return float64(c.wire[w]) / float64(total)
}

// tripleCells returns the cells of run (stormRun, mixRun or poissonRun)
// for ccs × cdfs × schemes (indices into schemeTriple), in that order.
func tripleCells(o Options, run func(Options, *topo.Topology, *workload.CDF, Scheme) RunConfig, cdfs []*workload.CDF, schemes []int, ccs ...func(Options) Scheme) []*cell {
	per := len(cdfs) * len(schemes)
	return runJobs(o, len(ccs)*per, func(i int) *cell {
		tp := o.leafSpine()
		return cellOf(o, run(o, tp, cdfs[i%per/len(schemes)], schemeTriple(o, ccs[i/per], tp)[schemes[i%len(schemes)]]))
	})
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

// fctStats is sorted FCTs' average and p99, as stats.FCTStats reduces
// them.
func fctStats(sorted []units.Duration) [2]units.Duration {
	var sum units.Duration
	for _, d := range sorted {
		sum += d
	}
	return [2]units.Duration{sum / units.Duration(max(len(sorted), 1)), stats.Percentile(sorted, 0.99)}
}

// stormTable is a table with one row per cell of cdfs × schemes:
// workload, scheme, then the cell's cols.
func stormTable(title string, cols []string, comment string, cdfs []*workload.CDF, cells []*cell, row func(*cell) []string) Table {
	t := Table{Title: title, Header: append([]string{"workload", "scheme"}, cols...), Comment: comment}
	for i, c := range cells {
		t.AddRow(append([]string{cdfs[i*len(cdfs)/len(cells)].Name, c.name}, row(c)...)...)
	}
	return t
}

// Fig8 reproduces the average and 99th-tail FCT of Poisson flows under
// incast-mix, for each congestion control × {plain, +ideal,
// +Floodgate} × workload.
func Fig8(o Options) []Table {
	ccs := []func(Options) Scheme{DCQCN, TIMELY, HPCC}
	cells := tripleCells(o, stormRun, workload.Workloads, []int{0, 1, 2}, ccs...)
	per := len(cells) / len(ccs)
	var tables []Table
	for i, base := range ccs {
		tables = append(tables, stormTable(fmt.Sprintf("Fig 8 (%s): avg/p99 FCT of Poisson flows, incastmix", base(o).Name),
			[]string{"avgFCT", "p99FCT", "flows"},
			"paper: Floodgate cuts avg FCT 10.1%-98.1%, p99 1.1x-207x (largest on Memcached/WebServer)",
			workload.Workloads, cells[i*per:(i+1)*per], func(c *cell) []string { return []string{fmtDur(c.poisson[0]), fmtDur(c.poisson[1]), c.flows} }))
	}
	return tables
}

// Fig9 reproduces the per-category FCT CDFs (incast, victim of incast,
// victim of PFC) under the Web Server incast-mix.
func Fig9(o Options) []Table {
	var tables []Table
	for _, c := range tripleCells(o, stormRun, []*workload.CDF{workload.WebServer}, []int{0, 1, 2}, DCQCN) {
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
	cells := tripleCells(o, mixRun, workload.Workloads, []int{0, 1, 2}, DCQCN)
	for i, c := range cells {
		plain := float64(cells[i-i%3].maxBuf)
		t.AddRow(workload.Workloads[i/3].Name, c.name, fmtBytes(c.maxBuf), fmtRatio(plain, float64(c.maxBuf)))
	}
	t.Comment = "paper: Floodgate reduces max buffer 2.4x-3.7x; ideal reduces it further"
	return []Table{t}
}

// Table2 reproduces the PFC triggered time per fabric layer for plain
// DCQCN (Floodgate rows are included to show zero).
func Table2(o Options) []Table {
	return []Table{stormTable("Table 2: PFC triggered time (DCQCN), incastmix", []string{"Host", "ToR", "Core"},
		"paper: DCQCN pauses cores on every workload (frame storm on Web Server); Floodgate triggers no PFC",
		workload.Workloads, tripleCells(o, stormRun, workload.Workloads, []int{0, 2}, DCQCN), func(c *cell) []string {
			return []string{fmtDur(c.pfc[topo.LayerHost]), fmtDur(c.pfc[topo.LayerToR]), fmtDur(c.pfc[topo.LayerCore])}
		})}
}

// Fig11 reproduces the per-hop buffer reallocation (a) and queuing
// time split (b) for Web Server and Hadoop.
func Fig11(o Options) []Table {
	cdfs := []*workload.CDF{workload.WebServer, workload.Hadoop}
	cells := tripleCells(o, stormRun, cdfs, []int{0, 1, 2}, DCQCN)
	var tables []Table
	for i, cdf := range cdfs {
		a := Table{
			Title:   "Fig 11a: max per-port buffer by hop — " + cdf.Name,
			Header:  []string{"scheme", "ToR-Up", "Core", "ToR-Down"},
			Comment: "paper: Floodgate shifts buffer from Core/ToR-Down to ToR-Up (source-side taming)",
		}
		b := Table{
			Title:   "Fig 11b: avg queuing time of non-incast flows by hop — " + cdf.Name,
			Header:  a.Header,
			Comment: "paper: queuing time at every hop shrinks; parked incast bytes do not delay non-incast flows",
		}
		for _, c := range cells[3*i : 3*i+3] {
			a.AddRow(append([]string{c.name}, c.bufs(hops...)...)...)
			row := []string{c.name}
			for _, h := range hops {
				row = append(row, fmtDur(c.queue[h]))
			}
			b.AddRow(row...)
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
		workload.Workloads, tripleCells(o, stormRun, workload.Workloads, []int{0, 1, 2}, DCQCN), func(c *cell) []string {
			return []string{fmtDur(c.fct[catIncast][0]), fmtDur(c.fct[catIncast][1])}
		})}
}

// Fig22 reproduces appendix A.2: pure Poisson traffic (no incast) —
// Floodgate must not hurt.
func Fig22(o Options) []Table {
	t := Table{
		Title:  "Fig 22: avg/p99 FCT under pure Poisson (no incast)",
		Header: []string{"workload", "scheme", "avgFCT", "p99FCT", "VOQs"},
	}
	for i, c := range tripleCells(o, poissonRun, workload.Workloads, []int{0, 1, 2}, DCQCN) {
		t.AddRow(workload.Workloads[i/3].Name, c.name, fmtDur(c.all[0]), fmtDur(c.all[1]), fmt.Sprintf("%d", c.voqs))
	}
	t.Comment = "paper: no false incast identification; Floodgate FCT == DCQCN, ideal slightly worse (credit overhead)"
	return []Table{t}
}
