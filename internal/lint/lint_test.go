package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

// repoRoot returns the module root (two levels up from internal/lint).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// fixtureConfig widens every rule scope to "..." so the synthetic
// fixture paths are covered, keeping the real key packages.
func fixtureConfig(module string) *Config {
	cfg := DefaultConfig(module)
	cfg.Pool = []string{"..."}
	return cfg
}

// TestFixtures runs the full rule registry over each fixture package
// under testdata/src and compares the rendered diagnostics against the
// package's expect.golden. Regenerate with `go test -run Fixtures
// -update ./internal/lint`.
func TestFixtures(t *testing.T) {
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDir(dir, "fixture/"+name)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(l, []*Package{pkg}, fixtureConfig(l.Module()))
			var got strings.Builder
			for _, d := range diags {
				got.WriteString(d.Rel(dir))
				got.WriteByte('\n')
			}
			golden := filepath.Join(dir, "expect.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got.String(), want)
			}
		})
	}
}

// TestFixturesHaveFindingsAndAllows asserts the property the fixtures
// exist to prove: every rule has at least one fixture-verified true
// positive, and every fixture allow except the deliberately stale one
// is actually consumed (no [allow] diagnostics leak into its golden).
func TestFixturesHaveFindingsAndAllows(t *testing.T) {
	ruleSeen := make(map[string]bool)
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		data, err := os.ReadFile(filepath.Join("testdata", "src", name, "expect.golden"))
		if err != nil {
			t.Fatalf("fixture %s has no expect.golden: %v", name, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			open := strings.Index(line, "[")
			end := strings.Index(line, "]")
			if open < 0 || end < open {
				t.Errorf("fixture %s: malformed golden line %q", name, line)
				continue
			}
			rule := line[open+1 : end]
			ruleSeen[rule] = true
			if rule == "allow" && name != "unusedallow" {
				t.Errorf("fixture %s has an unused allow: %s", name, line)
			}
		}
	}
	for _, r := range Rules() {
		if !ruleSeen[r.Name] {
			t.Errorf("rule %s has no fixture-verified finding", r.Name)
		}
	}
	if !ruleSeen["allow"] {
		t.Error("no fixture verifies the unused-allow report")
	}
}

// TestRealTreeClean lints the shipped tree with the production config
// and requires zero findings: the invariants hold, and every allow in
// the tree is justified by a matching diagnostic.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(l, pkgs, DefaultConfig(l.Module())) {
		t.Errorf("finding: %s", d.Rel(root))
	}
}

// TestReportDeterminism lints every fixture twice, each time with a
// fresh loader, and demands identical bytes: the linter's own output
// must satisfy the invariant it enforces.
func TestReportDeterminism(t *testing.T) {
	render := func() string {
		l, err := NewLoader(repoRoot(t))
		if err != nil {
			t.Fatal(err)
		}
		dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
		if err != nil {
			t.Fatal(err)
		}
		var pkgs []*Package
		for _, dir := range dirs {
			pkg, err := l.LoadDir(dir, "fixture/"+filepath.Base(dir))
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		var b strings.Builder
		for _, d := range Run(l, pkgs, fixtureConfig(l.Module())) {
			b.WriteString(d.Rel(".") + "\n")
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("fixtures produced no findings")
	}
	if second := render(); second != first {
		t.Errorf("findings differ between identical runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}
