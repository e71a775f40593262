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
// The rule composes with shardsafety through the run's shared set: an
// object shardsafety found aliased across shards is cross-shard state,
// so a tainted write into it is flagged too — even when the sharing
// itself was deliberate and allowlisted, because "shared on purpose"
// does not license "written in nondeterministic order". The taint pass
// runs only for functions that touch a sink or shared state.
func checkDetWrite(c *Ctx) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := sinkFunc(c, n); fn != nil {
						for _, arg := range n.Args {
							if r := c.taint(fd.Body).ExprTaint(arg); r != nil {
								c.Report(arg.Pos(), "nondeterministic value (%s) flows into %s.%s; rendered output must be a pure function of (config, seed)",
									r.Why, recvNamed(fn), fn.Name())
								break // one finding per call site is enough signal
							}
						}
					}
				case *ast.AssignStmt:
					checkSharedWrite(c, fd.Body, n)
				}
				return true
			})
		}
	}
}

// sinkFunc resolves a call to a rendered-output sink method: any method
// with parameters on a stats or metrics receiver, or exp's Table. Nil
// for everything else.
func sinkFunc(c *Ctx, call *ast.CallExpr) *types.Func {
	fn := callee(c.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 || recvNamed(fn) == "" {
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
func checkSharedWrite(c *Ctx, body *ast.BlockStmt, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		obj := identObj(c.Pkg.Info, rootIdent(lhs))
		sharedAt, ok := c.out.shared[obj]
		if !ok {
			continue
		}
		tt := c.taint(body)
		r := tt.ExprTaint(as.Rhs[i])
		if idx, isIdx := ast.Unparen(lhs).(*ast.IndexExpr); isIdx && r == nil {
			r = tt.ExprTaint(idx.Index)
		}
		if r != nil {
			c.Report(lhs.Pos(), "nondeterministic value (%s) written to %s, which is shared across shard Networks (shared at %s); cross-shard state must stay deterministic",
				r.Why, obj.Name(), sharedAt)
		}
	}
}
