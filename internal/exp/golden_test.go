package exp

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The goldens pin what the simulator prints: testdata/smoke.golden holds
// every table of the smoke pass, testdata/obs.golden the size and digest
// of every file of fig6's observed run. A change that moves a cell shows
// it in `git diff internal/exp/testdata`; a golden changes only in a
// commit that says why.
var update = flag.Bool("update", false, "rewrite testdata/smoke.golden and testdata/obs.golden")

const (
	smokeGolden = "testdata/smoke.golden"
	obsGolden   = "testdata/obs.golden"
)

// maxMovedLines caps the differing lines printed per moved table.
const maxMovedLines = 20

// goldenBlock renders tabs as floodsim prints them, a blank line between
// tables, with every line right-trimmed: the renderer pads the last
// column, and trailing blanks would not survive `git diff --check`.
func goldenBlock(tabs []Table) string {
	parts := make([]string, len(tabs))
	for i := range tabs {
		parts[i] = tabs[i].String()
	}
	lines := strings.Split(strings.Join(parts, "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

// goldenSections splits smoke.golden into its blocks by experiment id:
// a `### <id>` line, then its tables, then a blank line.
func goldenSections(s string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split("\n"+s, "\n### ")[1:] {
		id, block, _ := strings.Cut(sec, "\n")
		out[id] = block
	}
	return out
}

// movedTables names each table of id's block that differs between want
// and got by its title line, with at most maxMovedLines of its
// differing lines (by position: - golden, + this build).
func movedTables(id, want, got string) string {
	var b strings.Builder
	wt, gt := strings.Split(want, "\n\n"), strings.Split(got, "\n\n")
	for i := range max(len(wt), len(gt)) {
		w, g := lineAt(wt, i), lineAt(gt, i)
		if w == g {
			continue
		}
		title, _, _ := strings.Cut(g, "\n")
		if g == "" {
			title, _, _ = strings.Cut(w, "\n")
		}
		fmt.Fprintf(&b, "%s: %s\n", id, title)
		wl, gl := strings.Split(w, "\n"), strings.Split(g, "\n")
		shown := 0
		for j := range max(len(wl), len(gl)) {
			if lineAt(wl, j) == lineAt(gl, j) {
				continue
			}
			if shown == maxMovedLines {
				b.WriteString("  ... (more lines differ)\n")
				break
			}
			fmt.Fprintf(&b, "  - %s\n  + %s\n", lineAt(wl, j), lineAt(gl, j))
			shown++
		}
	}
	return b.String()
}

// lineAt is s[i], or "" past its end.
func lineAt(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return ""
}

// readGolden returns the golden at path; a missing golden fails the
// test, naming the command that writes it.
func readGolden(t *testing.T, path, regen string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v: write it with `%s`", err, regen)
	}
	return string(data)
}

func writeGolden(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", path)
}

// TestSmokeGolden holds every table of the smoke pass to
// testdata/smoke.golden. It reads the tables TestSmokeAllExperiments
// rendered (smokeRun), so after it the check simulates nothing. On a
// mismatch it names each moved table by experiment id and title, with
// its differing lines; a move that is meant is committed with -update.
func TestSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is not short")
	}
	const regen = "go test ./internal/exp -run TestSmokeGolden -update"
	var want map[string]string
	if !*update {
		want = goldenSections(readGolden(t, smokeGolden, regen))
	}
	var sections []string
	var moved strings.Builder
	for _, e := range List() {
		got := goldenBlock(smokeRun(t, e.ID))
		sections = append(sections, "### "+e.ID+"\n"+got)
		if w, ok := want[e.ID]; !ok {
			fmt.Fprintf(&moved, "%s: not in the golden\n", e.ID)
		} else if w != got {
			moved.WriteString(movedTables(e.ID, w, got))
		}
		delete(want, e.ID)
	}
	if *update {
		writeGolden(t, smokeGolden, strings.Join(sections, "\n"))
		return
	}
	for _, id := range sortedKeys(want) {
		fmt.Fprintf(&moved, "%s: in the golden, no longer registered\n", id)
	}
	if moved.Len() > 0 {
		t.Fatalf("smoke tables differ from %s:\n%s\nIf every move is meant, rewrite it with `%s` and say why in CHANGES.md.",
			smokeGolden, moved.String(), regen)
	}
}

// obsDigests renders one `name size sha256` line per file, in name order.
func obsDigests(files map[string][]byte) string {
	var b strings.Builder
	for _, name := range sortedKeys(files) {
		fmt.Fprintf(&b, "%s %d %x\n", name, len(files[name]), sha256.Sum256(files[name]))
	}
	return b.String()
}

// checkObsGolden holds the files of fig6's serial observed run to
// testdata/obs.golden, naming every file that moved, appeared or went.
func checkObsGolden(t *testing.T, files map[string][]byte) {
	t.Helper()
	const regen = "go test ./internal/exp -run TestObsSmoke -update"
	got := obsDigests(files)
	if *update {
		writeGolden(t, obsGolden, got)
		return
	}
	byName := func(s string) map[string]string {
		m := map[string]string{}
		for _, l := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
			name, _, _ := strings.Cut(l, " ")
			m[name] = l
		}
		return m
	}
	want, have := byName(readGolden(t, obsGolden, regen)), byName(got)
	all := maps.Clone(want)
	maps.Copy(all, have)
	var moved []string
	for _, name := range sortedKeys(all) {
		if have[name] != want[name] {
			moved = append(moved, fmt.Sprintf("%s:\n  - %s\n  + %s", name, want[name], have[name]))
		}
	}
	if len(moved) > 0 {
		t.Fatalf("fig6 -obs files differ from %s:\n%s\n\nIf every move is meant, rewrite it with `%s` and say why in CHANGES.md.",
			obsGolden, strings.Join(moved, "\n"), regen)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
