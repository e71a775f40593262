package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkHotpath flags capturing closures scheduled from files marked
// //lint:hotpath. Engine.After/At with a func literal that captures
// variables allocates one closure per event — on paths that fire per
// packet that is the dominant allocation of a run. The AfterArg/AtArg
// variants take a pre-built capture-free callback plus a pointer
// argument and allocate nothing — unless the callback itself is a
// capturing literal, which re-introduces the very allocation the
// variant exists to avoid, so those are flagged too.
func checkHotpath(c *Ctx) {
	for _, f := range c.Pkg.Files {
		if !fileMarked(f, "//lint:hotpath") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			fn := callee(c.Pkg.Info, call)
			if !isPkgFunc(fn, c.Cfg.path("sim"), "After", "At", "AfterArg", "AtArg") || recvNamed(fn) != "Engine" {
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				return true
			}
			caps := captures(c.Pkg, lit)
			if len(caps) == 0 {
				return true
			}
			if strings.HasSuffix(fn.Name(), "Arg") {
				c.Report(call.Pos(), "closure passed to Engine.%s captures %s and allocates per event on a hot path; pass the state through the arg parameter with a pre-built capture-free callback",
					fn.Name(), strings.Join(caps, ", "))
			} else {
				c.Report(call.Pos(), "closure passed to Engine.%s captures %s and allocates per event on a hot path; use %sArg with a pre-built capture-free callback",
					fn.Name(), strings.Join(caps, ", "), fn.Name())
			}
			return true
		})
	}
}

// fileMarked reports whether any comment line in the file starts with
// the marker (optionally followed by a reason).
func fileMarked(f *ast.File, marker string) bool {
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			if cm.Text == marker || strings.HasPrefix(cm.Text, marker+" ") {
				return true
			}
		}
	}
	return false
}

// captures lists the variables a func literal closes over: those an
// enclosing function declares (package-level state is referenced
// directly, not captured).
func captures(pkg *Package, lit *ast.FuncLit) []string {
	var names []string
	for _, id := range outerRefs(pkg.Info, lit) {
		if v := pkg.Info.Uses[id]; v.Parent() != pkg.Types.Scope() && v.Parent() != types.Universe {
			names = append(names, v.Name())
		}
	}
	return names
}

// outerRefs returns, in source order, the first identifier naming each
// variable a func literal references but does not declare (fields
// excluded). hotpath reads it as the captures that allocate,
// shardsafety as the state a per-shard callback reaches.
func outerRefs(info *types.Info, lit *ast.FuncLit) []*ast.Ident {
	seen := make(map[types.Object]bool)
	var ids []*ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && !seen[v] && !declaredIn(v, lit) {
			seen[v] = true
			ids = append(ids, id)
		}
		return true
	})
	return ids
}
