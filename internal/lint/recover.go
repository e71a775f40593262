package lint

import (
	"go/ast"
	"go/types"
)

// checkRecover flags calls to the recover builtin. Panic recovery is
// the experiment executor's job: exp wraps each run's panic into a
// structured *RunError at one boundary, so a sweep survives a faulting
// run without losing the config hash or the stack. A bare recover()
// anywhere else swallows the panic before that boundary sees it —
// hiding simulator bugs instead of reporting them. (Test files are not
// loaded by the linter, so tests may use recover freely.)
func checkRecover(c *Ctx) {
	if inScope(c.Cfg.Executor, c.Pkg.Path) {
		return
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := c.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
				c.Report(call.Pos(), "bare recover() outside the run executor swallows panics before exp's run boundary can wrap them into a structured RunError; let the panic propagate")
			}
			return true
		})
	}
}
