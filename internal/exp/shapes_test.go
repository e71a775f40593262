package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestPaperShapes pins the paper's headline claims (DESIGN.md §6,
// EXPERIMENTS.md) as ratio assertions on the tables the smoke pass
// renders; it adds no simulation of its own when TestSmokeAllExperiments
// ran first. Byte-identity guards a refactor; this guards a change that
// is allowed to move numbers from bending the reproduction. Every
// failure names the experiment and the cell.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is not short")
	}
	shapes := []struct {
		id    string
		check func(s *shapeCheck)
	}{
		{"table2", func(s *shapeCheck) {
			// DCQCN pauses the core on every workload; Floodgate pauses nothing.
			tab := s.table("Table 2")
			for _, r := range tab.Rows {
				switch r[1] {
				case "DCQCN":
					s.atLeast(r[0]+" DCQCN Core", s.val(tab, r, "Core"), 1)
				case "DCQCN+Floodgate":
					for _, layer := range []string{"Host", "ToR", "Core"} {
						s.equal(r[0]+" DCQCN+Floodgate "+layer, s.val(tab, r, layer), 0)
					}
				}
			}
		}},
		{"fig10", func(s *shapeCheck) {
			// Floodgate cuts the max buffer by at least 2.4x; ideal cuts it further.
			tab := s.table("Fig 10")
			for i := 0; i+2 < len(tab.Rows); i += 3 {
				w := tab.Rows[i][0]
				plain, fg := s.val(tab, s.row(tab, w, "DCQCN"), "maxSwitchBuf"), s.val(tab, s.row(tab, w, "DCQCN+Floodgate"), "maxSwitchBuf")
				ideal := s.val(tab, s.row(tab, w, "DCQCN+ideal"), "maxSwitchBuf")
				s.atLeast(w+" DCQCN / +Floodgate maxSwitchBuf", plain/fg, 2.4)
				s.atMost(w+" +ideal / +Floodgate maxSwitchBuf", ideal/fg, 1)
			}
		}},
		{"fig14", func(s *shapeCheck) {
			// Floodgate's last hop stays flat as the fabric grows; DCQCN's does not.
			plain, fg := s.table("Fig 14: buffer vs fabric size (pure incast) — DCQCN"), s.table("— DCQCN+Floodgate")
			lo, hi := 0.0, 0.0
			for i, r := range fg.Rows {
				v := s.val(fg, r, "ToR-Down")
				if i == 0 || v < lo {
					lo = v
				}
				hi = max(hi, v)
				s.atLeast(r[0]+" ToRs DCQCN / +Floodgate ToR-Down", s.val(plain, plain.Rows[i], "ToR-Down")/v, 10)
			}
			s.atMost("+Floodgate ToR-Down max / min over 20-80 ToRs", hi/lo, 1.1)
		}},
		{"fig16", func(s *shapeCheck) {
			// DCQCN's last hop keeps growing with the flow count; Floodgate converges.
			for _, tab := range s.tables("Fig 16") {
				ecn := strings.TrimPrefix(tab.Title, "Fig 16: buffer vs #arrived flows, ")
				plain, fg := s.val(tab, s.row(tab, "DCQCN"), "end"), s.val(tab, s.row(tab, "DCQCN+Floodgate"), "end")
				s.atLeast(ecn+" DCQCN / +Floodgate ToR-Down at end", plain/fg, 10)
			}
		}},
		{"fig18", func(s *shapeCheck) {
			// Timer-aggregated credits cost less bandwidth than per-packet ones.
			tab := s.table("Fig 18")
			fg, ideal := s.val(tab, s.row(tab, "DCQCN+Floodgate"), "credit share"), s.val(tab, s.row(tab, "DCQCN+ideal"), "credit share")
			s.atMost("+Floodgate / +ideal credit share", fg/ideal, 0.999)
		}},
		{"compat", func(s *shapeCheck) {
			// Pure-Poisson FCT is untouched under every CC (§8).
			tab := s.table("Compatibility")
			for _, r := range tab.Rows {
				ratio := s.val(tab, r, "pure p99 (+FG)") / s.val(tab, r, "pure p99 (plain)")
				s.atLeast(r[0]+" pure p99 +FG / plain", ratio, 0.9)
				s.atMost(r[0]+" pure p99 +FG / plain", ratio, 1.1)
			}
		}},
		{"fig11", func(s *shapeCheck) {
			// Floodgate moves the incast's buffer from the last hop to the first.
			for _, tab := range s.tables("Fig 11a") {
				w := strings.TrimPrefix(tab.Title, "Fig 11a: max per-port buffer by hop — ")
				plain, fg := s.row(tab, "DCQCN"), s.row(tab, "DCQCN+Floodgate")
				s.atLeast(w+" DCQCN / +Floodgate ToR-Down", s.val(tab, plain, "ToR-Down")/s.val(tab, fg, "ToR-Down"), 5)
				s.atLeast(w+" +Floodgate - DCQCN ToR-Up", s.val(tab, fg, "ToR-Up")-s.val(tab, plain, "ToR-Up"), 1)
			}
		}},
		{"fig21", func(s *shapeCheck) {
			// Floodgate does not hurt incast flows' own tail.
			tab := s.table("Fig 21")
			for _, r := range tab.Rows {
				if r[1] == "DCQCN" {
					fg := s.row(tab, r[0], "DCQCN+Floodgate")
					s.atMost(r[0]+" +Floodgate / DCQCN incast p99", s.val(tab, fg, "p99FCT")/s.val(tab, r, "p99FCT"), 1.02)
				}
			}
		}},
		{"fig12", func(s *shapeCheck) {
			// Credit loss is harmless: goodput stays at the lossless level.
			tab := s.table("Fig 12")
			for _, rate := range []string{"5%", "10%"} {
				s.atLeast(rate+" uniform credit loss goodput vs lossless", s.val(tab, s.row(tab, rate), "vs lossless"), 0.95)
			}
		}},
		{"scaleincast", func(s *shapeCheck) {
			// PFC is eliminated where DCQCN pauses, on the 100k-host Clos too.
			tab := s.table("-way incast on")
			s.atLeast("DCQCN pfc pauses", s.val(tab, s.row(tab, "DCQCN"), "pfc pauses"), 1)
			s.equal("DCQCN+Floodgate pfc pauses", s.val(tab, s.row(tab, "DCQCN+Floodgate"), "pfc pauses"), 0)
		}},
		{"sloincast", func(s *shapeCheck) {
			// Floodgate pauses nothing, so no request ever times out.
			for _, tab := range s.tables("") {
				for _, r := range tab.Rows {
					if r[2] != "DCQCN+Floodgate" {
						continue
					}
					cell := fmt.Sprintf("%s fan-in %s %s %s", tab.Title, r[0], r[1], r[3])
					s.equal(cell+" pfc", s.val(tab, r, "pfc"), 0)
					s.equal(cell+" timeout", s.val(tab, r, "timeout"), 0)
				}
			}
		}},
		{"degree", func(s *shapeCheck) {
			// The relief grows strictly with the fan-in.
			tab := s.table("degree")
			for i := 1; i < len(tab.Rows); i++ {
				prev, cur := s.val(tab, tab.Rows[i-1], "relief"), s.val(tab, tab.Rows[i], "relief")
				s.atLeast(fmt.Sprintf("relief at %s over %s", tab.Rows[i][0], tab.Rows[i-1][0]), cur/prev, 1.000001)
			}
		}},
	}
	for _, sh := range shapes {
		sh.check(&shapeCheck{t: t, id: sh.id, tabs: smokeRun(t, sh.id)})
	}
}

// shapeCheck reads one experiment's rendered tables; every failure it
// reports names the experiment and the cell.
type shapeCheck struct {
	t    *testing.T
	id   string
	tabs []Table
}

// tables returns the experiment's tables whose title contains sub.
func (s *shapeCheck) tables(sub string) []Table {
	var out []Table
	for _, tab := range s.tabs {
		if strings.Contains(tab.Title, sub) {
			out = append(out, tab)
		}
	}
	if len(out) == 0 {
		s.t.Fatalf("%s: no table titled %q", s.id, sub)
	}
	return out
}

func (s *shapeCheck) table(sub string) Table { return s.tables(sub)[0] }

// row returns the first row whose leading cells are keys.
func (s *shapeCheck) row(tab Table, keys ...string) []string {
	for _, r := range tab.Rows {
		if len(r) >= len(keys) && strings.Join(r[:len(keys)], "\x00") == strings.Join(keys, "\x00") {
			return r
		}
	}
	s.t.Fatalf("%s: %q has no row %v", s.id, tab.Title, keys)
	return nil
}

// val parses the row's cell in the named column to base units.
func (s *shapeCheck) val(tab Table, r []string, col string) float64 {
	for i, h := range tab.Header {
		if h == col {
			v, err := parseCell(r[i])
			if err != nil {
				s.t.Fatalf("%s: %q row %v column %q: %v", s.id, tab.Title, r[0], col, err)
			}
			return v
		}
	}
	s.t.Fatalf("%s: %q has no column %q", s.id, tab.Title, col)
	return 0
}

func (s *shapeCheck) atLeast(cell string, got, want float64) {
	if !(got >= want) {
		s.t.Errorf("%s: %s = %.4g, want >= %g", s.id, cell, got, want)
	}
}

func (s *shapeCheck) atMost(cell string, got, want float64) {
	if !(got <= want) {
		s.t.Errorf("%s: %s = %.4g, want <= %g", s.id, cell, got, want)
	}
}

func (s *shapeCheck) equal(cell string, got, want float64) {
	if got != want {
		s.t.Errorf("%s: %s = %.4g, want %g", s.id, cell, got, want)
	}
}

// cellUnits maps the suffixes units' String methods print to base units
// (ps, bytes, bit/s); longer suffixes first, so "Gbps" is not read as
// "ps" and "MB" not as "B".
var cellUnits = []struct {
	suffix string
	scale  float64
}{
	{"Gbps", 1e9}, {"Mbps", 1e6}, {"Kbps", 1e3}, {"bps", 1},
	{"ps", 1}, {"ns", 1e3}, {"us", 1e6}, {"ms", 1e9}, {"s", 1e12},
	{"MB", 1e6}, {"KB", 1e3}, {"B", 1},
	{"x", 1}, {"%", 1},
}

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
