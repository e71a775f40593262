package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkOrdering proves that same-timestamp event ordering is governed
// by the sim.Pri* ladder and nothing else. The engine breaks timestamp
// ties by a packed (priority, sequence) key; if a call site passes a
// priority that is a raw number, or derives from map iteration order or
// wall time, the tie-break becomes either meaningless (colliding raw
// numbers) or nondeterministic — and either way the bit-identity
// guarantee between sharded and single-engine runs dissolves.
//
// Provenance is carried by the type: AtArgPri takes a sim.Pri, and
// outside package sim a Pri can only come from the ladder. Two
// syntactic checks close the holes the compiler leaves open:
//
//   - a conversion to sim.Pri launders an arbitrary integer;
//   - a constant sim.Pri expression that mentions no sim.Pri*
//     constant is a raw number (an untyped literal converts silently).
//
// The per-function taint pass (taint.go, shared with detwrite) then
// rejects a priority or an event time derived from a nondeterminism
// source.
func checkOrdering(c *Ctx) {
	simPath := c.Cfg.path("sim")
	info := c.Pkg.Info
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSchedTaint(c, fd)
			}
		}
		if c.Pkg.Path == simPath {
			continue // the ladder itself is built here
		}
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			tv, ok := info.Types[e]
			if !ok || !isNamed(tv.Type, simPath, "Pri") {
				return true
			}
			if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 && info.Types[call.Fun].IsType() {
				c.Report(e.Pos(), "conversion to sim.Pri launders an arbitrary value into a priority; build it from the sim.Pri* ladder (sim.WirePri for wire rungs)")
				return false
			}
			if tv.Value != nil && !mentionsPriConst(info, simPath, e) {
				c.Report(e.Pos(), "priority %s does not derive from the sim.Pri* ladder; raw tie-break values collide and make same-timestamp order arbitrary", tv.Value)
			}
			return tv.Value == nil // a constant's operands are judged with it
		})
	}
}

// checkSchedTaint rejects engine scheduling calls whose event time, or
// AtArgPri priority, derives from a nondeterminism source.
func checkSchedTaint(c *Ctx, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := callee(c.Pkg.Info, call)
		if !isPkgFunc(fn, c.Cfg.path("sim"), "At", "After", "AtArg", "AfterArg", "AtArgPri") || recvNamed(fn) != "Engine" {
			return true
		}
		tt := c.taint(fd.Body)
		// A tainted time reorders the whole schedule, not just a tie.
		if r := tt.ExprTaint(call.Args[0]); r != nil {
			c.Report(call.Pos(), "event time derives from %s; schedule times must be a pure function of (config, seed)", r.Why)
		} else if fn.Name() == "AtArgPri" && len(call.Args) == 4 {
			if r := tt.ExprTaint(call.Args[3]); r != nil {
				c.Report(call.Args[3].Pos(), "same-timestamp priority derives from %s; tie-breaks must come from the sim.Pri* ladder", r.Why)
			}
		}
		return true
	})
}

// mentionsPriConst reports whether the expression mentions any sim.Pri*
// ladder constant.
func mentionsPriConst(info *types.Info, simPath string, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if cn, ok := info.Uses[id].(*types.Const); ok && cn.Pkg() != nil &&
				cn.Pkg().Path() == simPath && strings.HasPrefix(cn.Name(), "Pri") {
				found = true
			}
		}
		return !found
	})
	return found
}
