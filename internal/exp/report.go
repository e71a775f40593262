package exp

import (
	"fmt"
	"strings"

	"floodgate/internal/packet"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// Aliases keeping run.go terse.
const mtu = packet.MTU

const catIncast = packet.CatIncast

type topoNodeID = packet.NodeID

// Table is a simple text table for experiment output, mirroring the
// rows/series of the corresponding paper figure.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Comment string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Comment != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Comment)
	}
	return b.String()
}

// fmtDur renders a duration for table cells.
func fmtDur(d units.Duration) string { return d.String() }

// fmtBytes renders a byte size for table cells.
func fmtBytes(b units.ByteSize) string { return b.String() }

// fmtRate renders a bit rate for table cells.
func fmtRate(r units.BitRate) string { return r.String() }

// hops is the 2-tier fabric's per-hop reporting order.
var hops = []topo.PortClass{topo.ClassToRUp, topo.ClassCore, topo.ClassToRDown}

// split deals rows, in order, into one table per name, titled
// fmt.Sprintf(title, name).
func split(title string, names, header []string, comment string, rows [][]string) []Table {
	per, tables := len(rows)/len(names), make([]Table, len(names))
	for i, name := range names {
		tables[i] = Table{Title: fmt.Sprintf(title, name), Header: header, Rows: rows[i*per : (i+1)*per], Comment: comment}
	}
	return tables
}

// fmtRatio renders a× comparisons.
func fmtRatio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
