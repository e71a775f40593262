package exp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"floodgate/internal/workload"
)

// A claim is one of the paper's headline results as a bound on cells of
// an experiment's tables; the claims slice defines "reproduced" (DESIGN.md
// §6). TestPaperShapes checks it on the smoke tables, the claims
// experiment renders it at any scale, and EXPERIMENTS.md pastes that
// rendering at scale 0.25.
type claim struct {
	id, sentence string        // the experiment read; what the paper says
	cells        func(*reader) // adds the named cells the bound applies to
	op           string        // "<", "<=", "=", ">=" or ">"
	bound        float64
}

const dcqcnFG = "DCQCN+Floodgate"

var claims = []claim{
	{"fig10", "Floodgate cuts the max switch buffer 2.4-3.7x under incastmix", over("Fig 10", "DCQCN", "/", dcqcnFG, "maxSwitchBuf"), ">=", 2.4},
	{"fig10", "ideal (per-packet credits) cuts it further", over("Fig 10", "DCQCN+ideal", "/", dcqcnFG, "maxSwitchBuf"), "<=", 1},
	{"table2", "DCQCN pauses the core on every workload", over("Table 2", "DCQCN", "", "", "Core"), ">=", 1},
	{"table2", "Floodgate triggers no PFC", over("Table 2", dcqcnFG, "", "", "Host", "ToR", "Core"), "=", 0},
	{"fig11", "Floodgate relieves the last hop (Fig 11a)", over("Fig 11a", "DCQCN", "/", dcqcnFG, "ToR-Down"), ">=", 5},
	{"fig11", "and moves the burst to the first hop (Fig 11a)", over("Fig 11a", dcqcnFG, "-", "DCQCN", "ToR-Up"), ">=", 1},
	{"fig11", "non-incast queuing time falls at every hop (Fig 11b)", over("Fig 11b", dcqcnFG, "/", "DCQCN", "ToR-Up", "Core", "ToR-Down"), "<", 1},
	{"fig12", "5% and 10% credit loss leave goodput at the lossless level", func(r *reader) {
		r.add("5% loss goodput vs lossless", r.table("Fig 12").at("vs lossless", "5%"))
		r.add("10% loss goodput vs lossless", r.table("Fig 12").at("vs lossless", "10%"))
	}, ">=", 0.95},
	{"fig14", "Floodgate's last hop is at most a tenth of DCQCN's at every fabric size", func(r *reader) {
		plain, tab := r.table("Fig 14"), r.table("— "+dcqcnFG)
		for _, row := range tab.Rows {
			r.add(row[0]+" ToRs DCQCN / "+dcqcnFG+" ToR-Down", plain.at("ToR-Down", row[0])/tab.at("ToR-Down", row[0]))
		}
	}, ">=", 10},
	{"fig14", "and stays flat as the fabric grows", func(r *reader) {
		tab, v := r.table("— "+dcqcnFG), []float64{}
		for _, row := range tab.Rows {
			v = append(v, tab.at("ToR-Down", row[0]))
		}
		r.add(dcqcnFG+" ToR-Down max / min over "+tab.Rows[0][0]+"-"+tab.Rows[len(v)-1][0]+" ToRs", slices.Max(v)/slices.Min(v))
	}, "<=", 1.1},
	{"fig16", "DCQCN's last hop keeps growing with the flow count; Floodgate converges", over("Fig 16", "DCQCN", "/", dcqcnFG, "end"), ">=", 10},
	{"fig17", "a larger credit timer T cuts credit bandwidth and the ToR-Up buffer (Fig 17a)", steps("Fig 17a", "creditRate", "ToR-Up"), "<", 1},
	{"fig17", "and inflates the ToR-Down buffer (Fig 17a)", steps("Fig 17a", "ToR-Down"), ">", 1},
	{"fig18", "timer-aggregated credits cost less bandwidth than per-packet credits", over("Fig 18", dcqcnFG, "/", "DCQCN+ideal", "credit share"), "<=", 0.999},
	{"fig20", "BFC-32Q's shared queues HOL-block Poisson flows that Floodgate spares (p90)", over("Fig 20", "BFC-32Q", "/", "HPCC+Floodgate", "p90"), ">", 1},
	{"fig20", "BFC-ideal beats Floodgate on Memcached (avg FCT)", over("Fig 20: vs BFC, Memcached", "BFC-ideal", "/", "HPCC+Floodgate", "avg"), "<", 1},
	{"fig21", "Floodgate does not hurt incast flows' own tail", over("Fig 21", dcqcnFG, "/", "DCQCN", "p99FCT"), "<=", 1.02},
	{"fig22", "Floodgate leaves pure-Poisson FCT untouched", over("Fig 22", dcqcnFG, "/", "DCQCN", "avgFCT", "p99FCT"), ">=", 0.9},
	{"fig22", "Floodgate leaves pure-Poisson FCT untouched", over("Fig 22", dcqcnFG, "/", "DCQCN", "avgFCT", "p99FCT"), "<=", 1.1},
	{"compat", "pure-Poisson p99 is untouched under every CC (§8)", compat, ">=", 0.9},
	{"compat", "pure-Poisson p99 is untouched under every CC (§8)", compat, "<=", 1.1},
	{"degree", "the relief grows strictly with the fan-in (extension)", steps("degree", "relief"), ">=", 1.000001},
	{"sloincast", "Floodgate pauses nothing in the closed-loop storm (extension)", slo("pfc"), "=", 0},
	{"sloincast", "so no request times out (extension)", slo("timeout"), "=", 0},
	{"scaleincast", "DCQCN pauses on the 100k-host Clos (extension)", over("-way incast on", "DCQCN", "", "", "pfc pauses"), ">=", 1},
	{"scaleincast", "Floodgate pauses nothing there (extension)", over("-way incast on", dcqcnFG, "", "", "pfc pauses"), "=", 0},
}

func compat(r *reader) {
	tab := r.table("Compatibility")
	for _, row := range tab.Rows {
		r.add(row[0]+" pure p99 +FG / plain", tab.at("pure p99 (+FG)", row[0])/tab.at("pure p99 (plain)", row[0]))
	}
}

// slo adds col of every DCQCN+Floodgate row of sloincast's tables.
func slo(col string) func(*reader) {
	return func(r *reader) {
		for _, tab := range r.tabs {
			for _, row := range tab.Rows {
				if row[2] == dcqcnFG {
					r.add(strings.Join(append(strings.Fields(tab.Title)[:1], "fan-in", row[0], row[1], row[3], col), " "), tab.at(col, row[:4]...))
				}
			}
		}
	}
}

// over adds, per workload, each of cols of scheme a over (op "/") or
// minus (op "-") scheme b, or of scheme a alone (op ""). A table titled
// sub has workload × scheme rows, or scheme rows under a title naming
// its workload (else ending in the setting the table stands for).
func over(sub, a, op, b string, cols ...string) func(*reader) {
	return func(r *reader) {
		for _, tab := range r.tables(sub) {
			keys, ws := func(_, s string) []string { return []string{s} }, []string{tab.Title[strings.LastIndex(tab.Title, " ")+1:]}
			for _, cdf := range workload.Workloads {
				if strings.Contains(tab.Title, cdf.Name) {
					ws[0] = cdf.Name
				}
			}
			if tab.Header[0] == "workload" {
				keys, ws = func(w, s string) []string { return []string{w, s} }, nil
				for _, row := range tab.Rows {
					if !slices.Contains(ws, row[0]) {
						ws = append(ws, row[0])
					}
				}
			}
			for _, w := range ws {
				for _, col := range cols {
					v := tab.at(col, keys(w, a)...)
					switch op {
					case "/":
						v /= tab.at(col, keys(w, b)...)
					case "-":
						v -= tab.at(col, keys(w, b)...)
					}
					r.add(strings.Join(strings.Fields(strings.Join([]string{w, a, op, b, col}, " ")), " "), v)
				}
			}
		}
	}
}

// steps adds, for each of cols, every row's value over the row before.
func steps(sub string, cols ...string) func(*reader) {
	return func(r *reader) {
		tab := r.table(sub)
		for _, col := range cols {
			for i := 1; i < len(tab.Rows); i++ {
				cur, prev := tab.Rows[i][0], tab.Rows[i-1][0]
				r.add(col+" at "+cur+" over "+prev, tab.at(col, cur)/tab.at(col, prev))
			}
		}
	}
}

// claimsTable renders every claim's verdict on the tables its
// experiment prints at o. Within a batch those tables are memoised, so
// it simulates nothing another experiment of the batch already has.
func claimsTable(o Options) []Table {
	ids := make([]string, len(claims))
	for i, c := range claims {
		ids[i] = c.id
	}
	got := map[string]outcome{}
	RunExperiments(ids, o, func(id string, tables []Table, err error) { got[id] = outcome{tables, err} })
	t := Table{
		Title:   "Headline claims: the paper's results as bounds on this run's tables",
		Header:  []string{"exp", "claim", "measured (worst cell)", "bound", "verdict"},
		Comment: "a claim holds when every cell it reads meets its bound; the verdict counts cells passing / read",
	}
	for _, c := range claims {
		t.AddRow(c.render(c.check(got[c.id].tables, got[c.id].err))...)
	}
	return []Table{t}
}

// The claims row closes the registry. It is appended here because its
// runner reaches the registry again, through RunByID.
func init() {
	registry = append(registry, Experiment{"claims", "headline claims: verdicts on this run's tables", claimsTable})
}

type tableCell struct {
	name string
	v    float64 // base units: ps, bytes, bit/s, or a ratio
}

// verdict is a claim checked on its experiment's tables.
type verdict struct {
	cells, fails []tableCell // every cell read; those that break the bound
	worst        tableCell   // the cell furthest past, or nearest to, the bound
	err          error       // the experiment's, or what the claim could not read
}

// check evaluates c on tabs, the tables of c.id, or on the error that
// experiment ended with. A table, row, column or number the claim cannot
// read fails this claim alone, and the error names it.
func (c claim) check(tabs []Table, err error) (v verdict) {
	defer func() {
		if p := recover(); p != nil {
			v = verdict{err: fmt.Errorf("%v", p)}
		}
	}()
	if err != nil {
		return verdict{err: err}
	}
	r := &reader{tabs: tabs}
	if c.cells(r); len(r.cells) == 0 {
		panic("read no cells")
	}
	least := math.Inf(1)
	for i, x := range r.cells {
		m := c.margin(x.v)
		if !(m > 0 || m == 0 && c.op != "<" && c.op != ">") {
			v.fails = append(v.fails, x)
		}
		if i == 0 || !(m >= least) && !math.IsNaN(least) {
			least, v.worst = m, x
		}
	}
	v.cells = r.cells
	return v
}

// margin is how far v clears the bound; NaN clears nothing.
func (c claim) margin(v float64) float64 {
	switch c.op {
	case "<", "<=":
		return c.bound - v
	case ">", ">=":
		return v - c.bound
	case "=":
		return -math.Abs(v - c.bound)
	}
	panic("exp: claim operator " + c.op)
}

// render is the claim's row of the claims table.
func (c claim) render(v verdict) []string {
	row := []string{c.id, c.sentence, fmt.Sprint(v.err), c.op + " " + strconv.FormatFloat(c.bound, 'g', -1, 64), "✗"}
	if v.err == nil {
		row[2] = fmt.Sprintf("%s = %.4g", v.worst.name, v.worst.v)
		if len(v.fails) == 0 {
			row[4] = "✓"
		}
		row[4] += fmt.Sprintf(" %d/%d", len(v.cells)-len(v.fails), len(v.cells))
	}
	return row
}

// reader holds one experiment's tables while a claim reads them; a
// table it cannot find panics, as Table.at does for a row, column or
// number, which fails the claim (check).
type reader struct {
	tabs  []Table
	cells []tableCell
}

func (r *reader) add(name string, v float64) { r.cells = append(r.cells, tableCell{name, v}) }

// tables returns the tables whose title contains sub.
func (r *reader) tables(sub string) []Table {
	var out []Table
	for _, tab := range r.tabs {
		if strings.Contains(tab.Title, sub) {
			out = append(out, tab)
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("no table titled %q", sub))
	}
	return out
}

func (r *reader) table(sub string) Table { return r.tables(sub)[0] }

// at parses column col of the first row whose leading cells are keys,
// in base units.
func (t Table) at(col string, keys ...string) float64 {
	i := slices.Index(t.Header, col)
	for _, r := range t.Rows {
		if i >= 0 && len(r) > i && slices.Equal(r[:min(len(keys), len(r))], keys) {
			v, err := parseCell(r[i])
			if err != nil {
				panic(fmt.Sprintf("%q row %v column %q reads %q", t.Title, keys, col, r[i]))
			}
			return v
		}
	}
	panic(fmt.Sprintf("%q has no row %v with column %q", t.Title, keys, col))
}

// cellUnits maps the suffixes units' String methods print to base units
// (ps, bytes, bit/s), longer suffixes first: "Gbps" is not read as "ps",
// nor "MB" as "B".
var cellUnits = []struct {
	suffix string
	scale  float64
}{{"Gbps", 1e9}, {"Mbps", 1e6}, {"Kbps", 1e3}, {"bps", 1}, {"ps", 1}, {"ns", 1e3}, {"us", 1e6}, {"ms", 1e9},
	{"s", 1e12}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1}, {"x", 1}, {"%", 1}}

// parseCell reads a rendered cell ("253.4us", "1.2MB", "3.75x",
// "0.175%", "12") back to a number in base units.
func parseCell(c string) (float64, error) {
	for _, u := range cellUnits {
		if num, ok := strings.CutSuffix(c, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(c, 64)
}
