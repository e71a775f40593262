package lint

import (
	"go/ast"
	"go/types"
)

// checkDetWrite is the determinism prover's last line of defense: no
// value tainted by a nondeterminism source — map iteration order, wall
// clock, pointer identity, runtime shape — may reach a rendered
// artifact. Sinks are the stats Collector's record methods, the metrics
// instruments and exporters, and exp's report tables; everything those
// write eventually lands in an NDJSON row, a CSV cell or a rendered
// table that the determinism tests compare byte-for-byte between runs.
//
// The rule composes with shardsafety through the fact store: an object
// that shardsafety marked FactShardShared is cross-shard state, so a
// tainted write into it is flagged too — even when the sharing itself
// was deliberate and allowlisted, because "shared on purpose" does not
// license "written in nondeterministic order".
func checkDetWrite(c *Ctx) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDetWriteFunc(c, fd)
		}
	}
}

func checkDetWriteFunc(c *Ctx, fd *ast.FuncDecl) {
	// Find candidate sites first; the taint fixpoint only runs for
	// functions that actually touch a sink or shard-shared state.
	var sinks []*ast.CallExpr
	var shared []*ast.AssignStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sinkFunc(c, n) != nil {
				sinks = append(sinks, n)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, _, ok := shardShared(c, lhs); ok {
					shared = append(shared, n)
					break
				}
			}
		}
		return true
	})
	if len(sinks) == 0 && len(shared) == 0 {
		return
	}
	tt := taintFunc(c.Pkg, fd.Body)
	for _, call := range sinks {
		fn := sinkFunc(c, call)
		for _, arg := range call.Args {
			if r := tt.ExprTaint(arg); r != nil {
				c.Report(arg.Pos(), "nondeterministic value (%s) flows into %s.%s; rendered output must be a pure function of (config, seed)",
					r.Why, recvNamed(fn), fn.Name())
				break // one finding per call site is enough signal
			}
		}
	}
	for _, as := range shared {
		checkSharedWrite(c, tt, as)
	}
}

// sinkFunc resolves a call to a rendered-output sink method: any method
// with parameters on a stats or metrics receiver, or exp's Table. Nil
// for everything else.
func sinkFunc(c *Ctx, call *ast.CallExpr) *types.Func {
	fn := callee(c.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	if recvNamed(fn) == "" {
		return nil
	}
	switch fn.Pkg().Path() {
	case c.Cfg.path("stats"), c.Cfg.path("metrics"):
		return fn
	case c.Cfg.path("exp"):
		if recvNamed(fn) == "Table" {
			return fn
		}
	}
	return nil
}

// checkSharedWrite flags a tainted store into shard-shared state: both
// a tainted stored value and a tainted element key make the shared
// object's contents depend on per-run accidents.
func checkSharedWrite(c *Ctx, tt *taintState, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		obj, sharedAt, ok := shardShared(c, lhs)
		if !ok {
			continue
		}
		r := tt.ExprTaint(as.Rhs[i])
		if r == nil {
			if idx, isIdx := ast.Unparen(lhs).(*ast.IndexExpr); isIdx {
				r = tt.ExprTaint(idx.Index)
			}
		}
		if r != nil {
			c.Report(lhs.Pos(), "nondeterministic value (%s) written to %s, which is shared across shard Networks (shared at %s); cross-shard state must stay deterministic",
				r.Why, obj.Name(), sharedAt)
		}
	}
}
