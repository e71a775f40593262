package exp

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestClaimVerdicts checks Table 2's "Floodgate triggers no PFC" on
// hand-built tables: a clean table holds, a Floodgate core that pauses
// fails naming the cell, an n/a cell fails naming it, and so does an
// experiment that failed.
func TestClaimVerdicts(t *testing.T) {
	none := claims[3] // table2: Floodgate triggers no PFC
	table2 := func(core string) []Table {
		tab := Table{Title: "Table 2: PFC triggered time", Header: []string{"workload", "scheme", "Host", "ToR", "Core"}}
		tab.AddRow("Memcached", "DCQCN", "0ps", "0ps", "293.4us")
		tab.AddRow("Memcached", dcqcnFG, "0ps", "0ps", core)
		return []Table{tab}
	}
	for _, tc := range []struct {
		tabs              []Table
		err               error
		measured, verdict string
	}{
		{table2("0ps"), nil, "Memcached DCQCN+Floodgate Host = 0", "✓ 3/3"},
		{table2("1us"), nil, "Memcached DCQCN+Floodgate Core = 1e+06", "✗ 2/3"},
		{table2("n/a"), nil, `row [Memcached DCQCN+Floodgate] column "Core" reads "n/a"`, "✗"},
		{nil, errors.New("exp: run x panicked"), "exp: run x panicked", "✗"},
	} {
		if row := none.render(none.check(tc.tabs, tc.err)); !strings.Contains(row[2], tc.measured) || row[4] != tc.verdict {
			t.Errorf("%s: row %q, want measured %q and verdict %q", none.sentence, row, tc.measured, tc.verdict)
		}
	}
}

// TestClaimsDocumented fails when EXPERIMENTS.md's headline block does
// not list the claims, in order: adding, renaming or rewording a claim
// means pasting the claims experiment's output there again.
func TestClaimsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(doc), "== Headline claims")
	block, _, _ = strings.Cut(block, "\n-- ")
	lines := strings.Split(block, "\n")
	var got []string
	for _, r := range lines[min(2, len(lines)):] { // after the title and the header
		f := regexp.MustCompile(`\s{2,}`).Split(r, 3)
		got = append(got, strings.Join(f[:min(2, len(f))], " | "))
	}
	var want []string
	for _, c := range claims {
		want = append(want, c.id+" | "+c.sentence)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("EXPERIMENTS.md's headline claims:\n%s\nwant (claims.go):\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
