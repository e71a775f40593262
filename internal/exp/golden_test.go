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
	"sync"
	"testing"

	"floodgate/internal/units"
)

// The goldens pin what the simulator prints: testdata/smoke.golden holds
// every table of the smoke pass, testdata/obs.golden the size and digest
// of every file of fig6's observed run, testdata/identity.golden the
// serial unsharded tables every determinism and no-impact check compares
// its cells with. A change that moves a cell shows it in `git diff
// internal/exp/testdata`; a golden changes only in a commit that says
// why. `go test ./internal/exp -run 'Golden|ObsSmoke' -update` rewrites
// all three.
var update = flag.Bool("update", false, "rewrite testdata/smoke.golden, obs.golden and identity.golden")

const (
	smokeGolden    = "testdata/smoke.golden"
	obsGolden      = "testdata/obs.golden"
	identityGolden = "testdata/identity.golden"
)

// TestMain removes the files of the observed fig6 run the obs tests
// share (observedFig6) once every test has read them.
func TestMain(m *testing.M) {
	m.Run()
	if obsRunDir != "" {
		os.RemoveAll(obsRunDir)
	}
}

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

// matrixWindow is the workload window of the shards × par matrices.
const matrixWindow = fullIncastMixDuration / 8

// identitySerial is the serial, unsharded run identity.golden records.
var identitySerial = Options{Scale: 0.1, Seed: 1, Parallelism: 1, Shards: 1}

// identityBlocks are identity.golden's blocks, in file order: a block
// name, the experiment it renders and the workload window it runs at.
var identityBlocks = []struct {
	name, id string
	window   units.Duration
}{
	{"fig2", "fig2", matrixWindow},
	{"fig6", "fig6", matrixWindow},
	{"fig10", "fig10", matrixWindow},
	{"fig23", "fig23", matrixWindow},
	{"faultmatrix", "faultmatrix", matrixWindow},
	{"sloincast", "sloincast", matrixWindow},
	{"fig6 at the obs window", "fig6", 0}, // obsSmokeOpts runs at the experiment's own window
}

const identityRegen = "go test ./internal/exp -run TestIdentityGolden -update"

// identityTables reads identity.golden's blocks by name, once per test
// binary. Under -update it simulates every block's serial twin instead
// and rewrites the golden: the only time an identity check simulates its
// reference.
var identityTables = sync.OnceValues(func() (map[string]string, error) {
	if !*update {
		data, err := os.ReadFile(identityGolden)
		if err != nil {
			return nil, fmt.Errorf("%v: write it with `%s`", err, identityRegen)
		}
		return goldenSections(string(data)), nil
	}
	prev := windowOverride
	defer func() { windowOverride = prev }()
	blocks := map[string]string{}
	var sections []string
	for _, b := range identityBlocks {
		e, err := Lookup(b.id)
		if err != nil {
			return nil, err
		}
		windowOverride = b.window
		blocks[b.name] = goldenBlock(e.Run(identitySerial))
		sections = append(sections, "### "+b.name+"\n"+blocks[b.name])
	}
	if err := os.WriteFile(identityGolden, []byte(strings.Join(sections, "\n")), 0o644); err != nil {
		return nil, err
	}
	return blocks, nil
})

// checkIdentity holds tabs, the tables one cell of an identity check
// rendered, to block's serial unsharded tables in identity.golden. A
// mismatch names the block, the cell and each moved line.
func checkIdentity(t *testing.T, block, cell string, tabs []Table) {
	t.Helper()
	blocks, err := identityTables()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := blocks[block]
	if !ok {
		t.Fatalf("%s has no %q block: write it with `%s`", identityGolden, block, identityRegen)
	}
	if got := goldenBlock(tabs); got != want {
		t.Errorf("%s at %s differs from the serial unsharded tables in %s:\n%s\nIf the serial tables moved on purpose, rewrite it with `%s` and say why in CHANGES.md.",
			block, cell, identityGolden, movedTables(block+" "+cell, want, got), identityRegen)
	}
}

// checkShardParMatrix runs experiment id at every cell of shards ∈ {1,
// 2, 4} × par ∈ {1, 4} but the serial unsharded one, whose tables the
// golden holds, and holds each to the golden at the matrices' window.
func checkShardParMatrix(t *testing.T, id string) {
	t.Helper()
	windowOverride = matrixWindow
	defer func() { windowOverride = 0 }()
	e, _ := Lookup(id)
	for _, shards := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			o := identitySerial
			o.Shards, o.Parallelism = shards, par
			if o != identitySerial {
				checkIdentity(t, id, fmt.Sprintf("shards=%d par=%d", shards, par), e.Run(o))
			}
		}
	}
}

// TestIdentityGolden holds identity.golden to its block list: no block
// missing, none left over. Under -update it rewrites the golden.
func TestIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	blocks, err := identityTables()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, b := range identityBlocks {
		names[b.name] = true
		if _, ok := blocks[b.name]; !ok {
			t.Errorf("%s has no %q block", identityGolden, b.name)
		}
	}
	for _, name := range sortedKeys(blocks) {
		if !names[name] {
			t.Errorf("%s holds %q, which no check reads", identityGolden, name)
		}
	}
	if *update {
		t.Logf("rewrote %s", identityGolden)
	} else if t.Failed() {
		t.Logf("rewrite it with `%s`", identityRegen)
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
