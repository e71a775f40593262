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
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// Config holds what varies between the production tree and the test
// fixtures. Every rule not scoped here runs on every package.
type Config struct {
	ModulePath string

	// Pool lists the packages held to the packet-pool rules, or "...".
	Pool []string
	// Executor lists the packages permitted to call recover() and start
	// goroutines: panic isolation and fan-out belong to the experiment
	// executor, and the deterministic layers are single-goroutine.
	Executor []string

	// SharedImmutable lists named types ("import/path.Type") that are
	// immutable after construction and therefore safe to alias across
	// shard Networks — the shared-state audit from exp/parallel.go made
	// machine-checkable. Pointer indirection is unwrapped before the
	// match.
	SharedImmutable []string
}

// DefaultConfig returns the production configuration for the module.
func DefaultConfig(module string) *Config {
	cfg := &Config{ModulePath: module}
	cfg.Pool = []string{cfg.path("device"), cfg.path("core"), cfg.path("bfc"), cfg.path("pfctag")}
	cfg.Executor = []string{cfg.path("exp")}
	cfg.SharedImmutable = []string{
		// Immutable after Build()/construction by audited contract
		// (see the shared-state audit in exp/parallel.go).
		cfg.path("topo") + ".Topology",
		cfg.path("fault") + ".Plan",
		cfg.path("workload") + ".CDF",
		// The app-plane dispatch table is sealed by app.Build before
		// any shard runs; Planes only read it.
		cfg.path("app") + ".Dispatch",
	}
	return cfg
}

// path is the import path of the module's internal package name: the
// packages whose types the rules key on (sim.Engine, packet.Packet,
// units.Time, the stats/metrics/exp sinks, device.Network).
func (cfg *Config) path(name string) string { return cfg.ModulePath + "/internal/" + name }

// inScope reports whether path is listed in patterns, or patterns
// holds "..." (every package).
func inScope(patterns []string, path string) bool {
	return slices.Contains(patterns, "...") || slices.Contains(patterns, path)
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
	Check func(ctx *Ctx)
}

// Rules returns the registry in execution order. The order is part of
// the contract: Run drives each rule over every package before the
// next rule starts, so detwrite sees every object shardsafety found
// shared across shards. checkBan rules are rows of the ban table.
func Rules() []Rule {
	return []Rule{
		{"walltime", "no wall-clock reads (time.Now/Since/Until) in deterministic code", checkBan},
		{"mathrand", "no math/rand; every draw must come from the seeded sim.Rand", checkBan},
		{"envread", "no environment reads; runs are configured by (config, seed) only", checkBan},
		{"multiselect", "no select over multiple channels; the runtime picks cases at random", checkBan},
		{"maprange", "no ranging over maps where order can reach tables or event scheduling", checkBan},
		{"pool", "packets come from and return to the Network pool", checkPool},
		{"hotpath", "no capturing closures scheduled from //lint:hotpath files", checkHotpath},
		{"unitsmix", "no raw arithmetic mixing units dimensions via conversions", checkUnitsMix},
		{"recover", "no bare recover() outside the experiment executor's run boundary", checkBan},
		{"goroutine", "no go statements outside the experiment executor; deterministic layers are single-goroutine", checkBan},
		{"shardsafety", "no mutable value reachable from two shard Networks outside the Cluster coupling layer", checkShardSafety},
		{"ordering", "same-timestamp event priorities come from the sim.Pri* ladder, never from nondeterministic state", checkOrdering},
		{"detwrite", "no nondeterministic value (map order, wall clock, pointer identity, GOMAXPROCS) written to stats, metrics or tables", checkDetWrite},
	}
}

// Ctx is the per-(rule, package) check context.
type Ctx struct {
	Cfg  *Config
	Pkg  *Package
	fset *token.FileSet
	rule string
	out  *runState
}

// taint returns the taint fixpoint of a function body, computed at
// most once per run: ordering and detwrite share it.
func (c *Ctx) taint(body *ast.BlockStmt) *taintState {
	if c.out.taints[body] == nil {
		c.out.taints[body] = taintFunc(c.Pkg, body)
	}
	return c.out.taints[body]
}

// Report files a diagnostic at pos unless an allow entry suppresses it.
func (c *Ctx) Report(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	for _, a := range c.out.allows {
		if a.rule == c.rule && a.line == p.Line && a.pos.Filename == p.Filename {
			a.used = true
			return
		}
	}
	c.out.diags = append(c.out.diags, Diagnostic{Pos: p, Rule: c.rule, Msg: fmt.Sprintf(format, args...)})
}

// ---- allowlist ----

var allowRE = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\s+(\S.*)$`)

type allowEntry struct {
	line   int // line the allow applies to
	rule   string
	pos    token.Position
	used   bool
	tagged bool // lives in a build-tag-excluded file; exempt from staleness
}

// collectAllows indexes every //lint:allow comment of some files. A
// comment trailing code suppresses on its own line; a comment alone on
// its line suppresses the following line. Allows in build-tag-excluded
// files (Package.TagFiles, e.g. //go:build simdebug sources) are
// indexed as tagged: their code is not linted in this build, so they
// can never match a diagnostic and must not be reported stale.
func (st *runState) collectAllows(l *Loader, files []*ast.File, tagged bool) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if m := allowRE.FindStringSubmatch(cm.Text); m != nil {
					pos := l.Fset.Position(cm.Pos())
					a := &allowEntry{line: pos.Line, rule: m[1], pos: pos, tagged: tagged}
					if standalone(l.Source(pos.Filename), pos) {
						a.line++
					}
					st.allows = append(st.allows, a)
				}
			}
		}
	}
}

// standalone reports whether only whitespace precedes the comment on
// its line.
func standalone(src []byte, pos token.Position) bool {
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return pos.Column == 1 // unknown source (or a //line-adjusted column)
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// ---- runner ----

type runState struct {
	diags  []Diagnostic
	allows []*allowEntry
	// shared maps each object shardsafety found aliased by more than
	// one shard Network (allowed sites too) to its first sharing site;
	// detwrite treats a nondeterministic write into one as a finding.
	shared map[types.Object]string
	taints map[*ast.BlockStmt]*taintState
}

// Run executes every rule over the given packages and returns the
// diagnostics sorted by position. Rules run in registry order, each
// over every package. Unused //lint:allow entries are reported under the
// pseudo-rule "allow"; allows living in build-tag-excluded files (e.g.
// simdebug) are collected but exempt from staleness, since the code
// they suppress is not part of the lint build.
func Run(l *Loader, pkgs []*Package, cfg *Config) []Diagnostic {
	st := &runState{shared: map[types.Object]string{}, taints: map[*ast.BlockStmt]*taintState{}}
	for _, pkg := range pkgs {
		st.collectAllows(l, pkg.Files, false)
		st.collectAllows(l, pkg.TagFiles, true)
	}
	for _, r := range Rules() {
		for _, pkg := range pkgs {
			r.Check(&Ctx{Cfg: cfg, Pkg: pkg, fset: l.Fset, rule: r.Name, out: st})
		}
	}
	for _, a := range st.allows {
		if !a.used && !a.tagged {
			st.diags = append(st.diags, Diagnostic{
				Pos:  a.pos,
				Rule: "allow",
				Msg:  fmt.Sprintf("//lint:allow %s never matched a diagnostic; remove it", a.rule),
			})
		}
	}
	slices.SortStableFunc(st.diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line), strings.Compare(a.Rule, b.Rule))
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
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && slices.Contains(names, fn.Name())
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

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
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
