// Package lint is floodlint: a stdlib-only static-analysis suite that
// machine-checks the simulator's determinism, pooling and units
// invariants. Every rule exists because one careless change — a
// time.Now in the engine, a range over a per-flow map that feeds a
// rendered table, a packet allocated outside the pool — silently
// breaks the property the whole reproduction rests on: a run is a pure
// function of (configuration, seed).
//
// Rules are suppressed line-by-line with
//
//	//lint:allow <rule> <reason>
//
// placed on (or on the line above) the offending line. Allow comments
// that never match a diagnostic are themselves reported, so the
// allowlist cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Config scopes each rule family to package paths. Scope entries are
// exact import paths, "prefix/..." subtrees, or "..." for every
// package handed to Run.
type Config struct {
	ModulePath string

	// Determinism scopes walltime / mathrand / envread / multiselect.
	Determinism []string
	// MapRange scopes the map-iteration-order rule; HostMapRange the
	// stricter per-host variant (fabric-sized maps feeding sinks).
	MapRange     []string
	HostMapRange []string
	// Pool scopes the packet-pool rules (direct allocation and leaks).
	Pool []string
	// Units scopes the units-mixing rule; UnitsPath is always exempt.
	Units []string
	// RecoverAllowed lists the packages permitted to call recover():
	// panic isolation belongs at the experiment executor's run boundary
	// and nowhere else.
	RecoverAllowed []string
	// GoAllowed lists the packages permitted to start goroutines: the
	// deterministic layers are single-goroutine by contract, and only
	// the exp executor (worker pool, shard barriers) may fan out.
	GoAllowed []string

	// ShardSafety scopes the cross-shard aliasing rule, Ordering the
	// same-timestamp priority rule, DetWrite the nondeterministic-write
	// taint rule.
	ShardSafety []string
	Ordering    []string
	DetWrite    []string

	// SharedImmutable lists named types ("import/path.Type") that are
	// immutable after construction and therefore safe to alias across
	// shard Networks — the shared-state audit from exp/parallel.go made
	// machine-checkable. Pointer indirection is unwrapped before the
	// match.
	SharedImmutable []string

	// Canonical packages the rules key their type checks on.
	UnitsPath   string // units.Time/ByteSize/BitRate live here
	SimPath     string // sim.Engine (hot-path scheduling rule, Pri* ladder)
	PacketPath  string // packet.NewData/NewCtrl (pool rule)
	DevicePath  string // device.Network pool methods, shard Networks
	StatsPath   string // stats.Collector (detwrite sink)
	MetricsPath string // metrics instruments and exporters (detwrite sink)
	ExpPath     string // exp.Table (detwrite sink)
}

// DefaultConfig returns the production scoping for the given module.
func DefaultConfig(module string) *Config {
	return &Config{
		ModulePath:   module,
		Determinism:  []string{"..."},
		MapRange:     []string{"..."},
		HostMapRange: []string{"..."},
		Pool: []string{
			module + "/internal/device",
			module + "/internal/core",
			module + "/internal/bfc",
			module + "/internal/pfctag",
		},
		Units:          []string{"..."},
		RecoverAllowed: []string{module + "/internal/exp"},
		GoAllowed:      []string{module + "/internal/exp"},
		ShardSafety:    []string{"..."},
		Ordering:       []string{"..."},
		DetWrite:       []string{"..."},
		SharedImmutable: []string{
			// Immutable after Build()/construction by audited contract
			// (see the shared-state audit in exp/parallel.go).
			module + "/internal/topo.Topology",
			module + "/internal/fault.Plan",
			module + "/internal/workload.CDF",
			// The app-plane dispatch table is sealed by app.Build before
			// any shard runs; Planes only read it.
			module + "/internal/app.Dispatch",
		},
		UnitsPath:   module + "/internal/units",
		SimPath:     module + "/internal/sim",
		PacketPath:  module + "/internal/packet",
		DevicePath:  module + "/internal/device",
		StatsPath:   module + "/internal/stats",
		MetricsPath: module + "/internal/metrics",
		ExpPath:     module + "/internal/exp",
	}
}

func inScope(patterns []string, path string) bool {
	for _, p := range patterns {
		if p == "..." || p == path {
			return true
		}
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if path == rest || strings.HasPrefix(path, rest+"/") {
				return true
			}
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// Rel renders the diagnostic with the filename relative to base.
func (d Diagnostic) Rel(base string) string {
	name := d.Pos.Filename
	if r, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(r, "..") {
		name = filepath.ToSlash(r)
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, d.Pos.Line, d.Rule, d.Msg)
}

// Rule is one analyzer: Check walks a package and reports through ctx.
type Rule struct {
	Name  string
	Doc   string
	Scope func(cfg *Config, pkg *Package) bool
	Check func(ctx *Ctx)
}

// Rules returns the registry in execution order. The order is part of
// the contract: Run drives each rule over every package before the
// next rule starts, so a rule may consume facts exported by the rules
// before it (detwrite reads shardsafety's escape facts).
func Rules() []Rule {
	return []Rule{
		{"walltime", "no wall-clock reads (time.Now/Since/Until) in deterministic code",
			func(c *Config, p *Package) bool { return inScope(c.Determinism, p.Path) }, checkWalltime},
		{"mathrand", "no math/rand; every draw must come from the seeded sim.Rand",
			func(c *Config, p *Package) bool { return inScope(c.Determinism, p.Path) }, checkMathRand},
		{"envread", "no environment reads; runs are configured by (config, seed) only",
			func(c *Config, p *Package) bool { return inScope(c.Determinism, p.Path) }, checkEnvRead},
		{"multiselect", "no select over multiple channels; the runtime picks cases at random",
			func(c *Config, p *Package) bool { return inScope(c.Determinism, p.Path) }, checkMultiSelect},
		{"maprange", "no ranging over maps where order can reach tables or event scheduling",
			func(c *Config, p *Package) bool { return inScope(c.MapRange, p.Path) }, checkMapRange},
		{"hostmaprange", "no ranging over per-host maps (NodeID/FlowID keys) into stats, metrics or table sinks",
			func(c *Config, p *Package) bool { return inScope(c.HostMapRange, p.Path) }, checkHostMapRange},
		{"pool", "packets come from and return to the Network pool",
			func(c *Config, p *Package) bool { return inScope(c.Pool, p.Path) }, checkPool},
		{"hotpath", "no capturing closures scheduled from //lint:hotpath files",
			func(c *Config, p *Package) bool { return true }, checkHotpath},
		{"unitsmix", "no raw arithmetic mixing units dimensions via conversions",
			func(c *Config, p *Package) bool {
				return p.Path != c.UnitsPath && inScope(c.Units, p.Path)
			}, checkUnitsMix},
		{"recover", "no bare recover() outside the experiment executor's run boundary",
			func(c *Config, p *Package) bool { return !inScope(c.RecoverAllowed, p.Path) }, checkRecover},
		{"goroutine", "no go statements outside the experiment executor; deterministic layers are single-goroutine",
			func(c *Config, p *Package) bool { return !inScope(c.GoAllowed, p.Path) }, checkGoroutine},
		{"shardsafety", "no mutable value reachable from two shard Networks outside the Cluster coupling layer",
			func(c *Config, p *Package) bool { return inScope(c.ShardSafety, p.Path) }, checkShardSafety},
		{"ordering", "same-timestamp event priorities come from the sim.Pri* ladder, never from nondeterministic state",
			func(c *Config, p *Package) bool { return inScope(c.Ordering, p.Path) }, checkOrdering},
		{"detwrite", "no nondeterministic value (map order, wall clock, pointer identity, GOMAXPROCS) written to stats, metrics or tables",
			func(c *Config, p *Package) bool { return inScope(c.DetWrite, p.Path) }, checkDetWrite},
	}
}

// Ctx is the per-(rule, package) check context. All carries every
// package of the run, so whole-program passes (the ordering rule's
// priority-carrier fixpoint) can see flows across package boundaries.
type Ctx struct {
	Cfg  *Config
	Pkg  *Package
	All  []*Package
	fset *token.FileSet
	src  func(filename string) []byte
	rule string
	out  *runState
}

// Facts returns the run-wide fact store shared by all rules.
func (c *Ctx) Facts() *Facts { return c.out.facts }

// Report files a diagnostic at pos unless an allow entry suppresses it.
func (c *Ctx) Report(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	if a := c.out.allows.match(p.Filename, p.Line, c.rule); a != nil {
		a.used = true
		return
	}
	c.out.diags = append(c.out.diags, Diagnostic{Pos: p, Rule: c.rule, Msg: fmt.Sprintf(format, args...)})
}

// ---- allowlist ----

var allowRE = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\s+(\S.*)$`)

type allowEntry struct {
	file   string
	line   int // line the allow applies to
	rule   string
	pos    token.Position
	used   bool
	tagged bool // lives in a build-tag-excluded file; exempt from staleness
}

type allowIndex struct{ entries []*allowEntry }

func (ai *allowIndex) match(file string, line int, rule string) *allowEntry {
	for _, a := range ai.entries {
		if a.rule == rule && a.line == line && a.file == file {
			return a
		}
	}
	return nil
}

// collectAllows indexes every //lint:allow comment of a package. A
// comment trailing code suppresses on its own line; a comment alone on
// its line suppresses the following line. Allows in build-tag-excluded
// files (pkg.TagFiles, e.g. //go:build simdebug sources) are indexed
// as tagged: their code is not linted in this build, so they can never
// match a diagnostic and must not be reported stale.
func collectAllows(fset *token.FileSet, src func(string) []byte, pkg *Package, ai *allowIndex) {
	collect := func(files []*ast.File, tagged bool) {
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					m := allowRE.FindStringSubmatch(cm.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(cm.Pos())
					line := pos.Line
					if standalone(src(pos.Filename), pos) {
						line++
					}
					ai.entries = append(ai.entries, &allowEntry{
						file: pos.Filename, line: line, rule: m[1], pos: pos, tagged: tagged,
					})
				}
			}
		}
	}
	collect(pkg.Files, false)
	collect(pkg.TagFiles, true)
}

// standalone reports whether only whitespace precedes the comment on
// its line.
func standalone(src []byte, pos token.Position) bool {
	if len(src) == 0 {
		return pos.Column == 1
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return pos.Column == 1
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// ---- runner ----

type runState struct {
	diags  []Diagnostic
	allows allowIndex
	facts  *Facts

	// carriers memoizes the ordering rule's whole-program priority-
	// carrier fixpoint (computed once per Run, over every package).
	carriers *carrierSet
}

// Run executes every rule over the given packages and returns the
// diagnostics sorted by position. Rules run in registry order, each
// over every package, so later rules can consume facts exported by
// earlier ones. Unused //lint:allow entries are reported under the
// pseudo-rule "allow"; allows living in build-tag-excluded files (e.g.
// simdebug) are collected but exempt from staleness, since the code
// they suppress is not part of the lint build.
func Run(l *Loader, pkgs []*Package, cfg *Config) []Diagnostic {
	st := &runState{facts: NewFacts()}
	for _, pkg := range pkgs {
		collectAllows(l.Fset, l.Source, pkg, &st.allows)
	}
	for _, r := range Rules() {
		for _, pkg := range pkgs {
			if !r.Scope(cfg, pkg) {
				continue
			}
			r.Check(&Ctx{Cfg: cfg, Pkg: pkg, All: pkgs, fset: l.Fset, src: l.Source, rule: r.Name, out: st})
		}
	}
	for _, a := range st.allows.entries {
		if !a.used && !a.tagged {
			st.diags = append(st.diags, Diagnostic{
				Pos:  a.pos,
				Rule: "allow",
				Msg:  fmt.Sprintf("//lint:allow %s never matched a diagnostic; remove it", a.rule),
			})
		}
	}
	sort.Slice(st.diags, func(i, j int) bool {
		a, b := st.diags[i], st.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return st.diags
}

// ---- shared type helpers ----

// callee resolves the *types.Func a call invokes (nil for conversions,
// builtins and indirect calls through variables).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is one of the named functions (or
// methods) declared in the package with the given import path.
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// recvNamed returns the name of fn's receiver type ("" for plain
// functions), unwrapping the pointer.
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// shortType renders a type with bare package names (no import paths),
// keeping diagnostics readable.
func shortType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// unitsDim classifies a type into a units dimension: "time" (Time,
// Duration), "bytes" (ByteSize) or "rate" (BitRate); "" otherwise.
func unitsDim(t types.Type, unitsPath string) string {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != unitsPath {
		return ""
	}
	switch n.Obj().Name() {
	case "Time", "Duration":
		return "time"
	case "ByteSize":
		return "bytes"
	case "BitRate":
		return "rate"
	}
	return ""
}
