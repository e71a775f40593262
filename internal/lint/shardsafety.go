package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// checkShardSafety enforces the sharded executor's shared-nothing
// contract: once a topology is partitioned into shard Networks, the
// only shard-crossing state is the Cluster coupling layer's mailbox
// exchange — every other mutable value must be private to one shard.
// The executor's bit-identity guarantee (DESIGN.md §10) and its
// race-freedom both rest on that invariant, and a violation is
// invisible at runtime until two shards actually race on the alias.
//
// The rule finds the syntactic shape every violation in practice takes:
// a loop over a []*device.Network slice (the per-shard fan-out) that
// hands the *same* outer mutable value — a pointer, slice, map, chan,
// func or interface — to more than one shard, either by storing it
// into the shard Network, passing it to a method, or installing a
// callback that references it. Values allocated inside the loop body
// are per-shard and clean; types listed in Config.SharedImmutable
// (immutable after construction, per exp/parallel.go's shared-state
// audit) are safe to alias and exempt.
//
// The file that declares the Cluster type is the sanctioned coupling
// layer — its mailbox exchange exists precisely to move state between
// shards under the barrier protocol — and is skipped. Every shared
// object the rule sees (reported or allowlisted) goes into the run's
// shared set, so detwrite can flag nondeterministic writes into
// shard-shared state even when the sharing itself was deliberately
// allowed.
func checkShardSafety(c *Ctx) {
	for _, f := range c.Pkg.Files {
		if c.Pkg.Path == c.Cfg.path("device") && declaresType(f, "Cluster") {
			continue // the sanctioned coupling layer (cluster.go)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isShardSlice(c, rng.X) {
				return true
			}
			checkShardLoop(c, rng)
			return true
		})
	}
}

// declaresType reports whether the file declares a type with the name.
func declaresType(f *ast.File, name string) bool {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
				return true
			}
		}
	}
	return false
}

// isShardSlice reports whether the expression is a []*device.Network.
func isShardSlice(c *Ctx, e ast.Expr) bool {
	tv, ok := c.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	ptr, ok := sl.Elem().(*types.Pointer)
	return ok && isNamed(ptr.Elem(), c.Cfg.path("device"), "Network")
}

// checkShardLoop audits one per-shard fan-out loop.
func checkShardLoop(c *Ctx, rng *ast.RangeStmt) {
	info := c.Pkg.Info
	valObj := identObj(info, rng.Value)
	keyObj := identObj(info, rng.Key)
	sliceRoot := identObj(info, rootIdent(rng.X))

	// shardNetRooted reports whether the expression reads through the
	// per-iteration shard Network: the range value variable, or the
	// ranged slice indexed by the range key (for i := range nets →
	// nets[i]).
	shardNetRooted := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				obj := identObj(info, x)
				return obj != nil && obj == valObj
			case *ast.SelectorExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				if idx := identObj(info, rootIdent(x.Index)); idx != nil && idx == keyObj &&
					sliceRoot != nil && identObj(info, rootIdent(x.X)) == sliceRoot {
					return true
				}
				e = x.X
			default:
				return false
			}
		}
	}

	skip := map[types.Object]bool{valObj: true, keyObj: true, sliceRoot: true}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr: // a store, not a plain rebinding
					if shardNetRooted(lhs) {
						reportShared(c, rng, skip, n.Rhs[i], "stored into every shard Network")
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !shardNetRooted(sel) {
				return true
			}
			for _, arg := range n.Args {
				reportShared(c, rng, skip, arg, "passed to every shard Network")
			}
		}
		return true
	})
}

// reportShared flags v when it makes an outer mutable value reachable
// from every shard, and records the object as shared either way.
func reportShared(c *Ctx, rng *ast.RangeStmt, skip map[types.Object]bool, v ast.Expr, how string) {
	v = ast.Unparen(v)
	if u, ok := v.(*ast.UnaryExpr); ok {
		v = u.X // &x aliases x
	}
	if lit, ok := v.(*ast.FuncLit); ok {
		reportCallbackRefs(c, rng, skip, lit)
		return
	}
	obj := identObj(c.Pkg.Info, rootIdent(v))
	vr, ok := obj.(*types.Var)
	if !ok || skip[obj] || vr.IsField() || declaredIn(vr, rng.Body) {
		return
	}
	t := vr.Type()
	if !sharedMutable(t) || immutableListed(c.Cfg, t) {
		return
	}
	share(c, vr, v.Pos())
	c.Report(v.Pos(), "mutable value %s (%s) %s; shard state must be private to its shard or move through the Cluster mailbox exchange (allocate per shard inside the loop, or list the type in SharedImmutable if it is immutable by contract)",
		vr.Name(), shortType(t), how)
}

// reportCallbackRefs flags outer mutable state a callback installed on
// every shard closes over or references: the engine will invoke the
// callback on each shard's goroutine, so everything it can reach is
// reachable from all shards at once.
func reportCallbackRefs(c *Ctx, rng *ast.RangeStmt, skip map[types.Object]bool, lit *ast.FuncLit) {
	for _, id := range outerRefs(c.Pkg.Info, lit) {
		vr := c.Pkg.Info.Uses[id]
		if t := vr.Type(); !skip[vr] && !declaredIn(vr, rng.Body) && sharedMutable(t) && !immutableListed(c.Cfg, t) {
			share(c, vr, id.Pos())
			c.Report(id.Pos(), "callback installed on every shard references %s (%s), aliasing it across shards; give each shard its own copy allocated inside the loop, or route the state through the Cluster mailbox exchange",
				vr.Name(), shortType(t))
		}
	}
}

// share records obj in the run's shared set; the first sharing site
// (base-filename:line, stable across checkouts) is the one detwrite
// names.
func share(c *Ctx, obj types.Object, pos token.Pos) {
	if _, ok := c.out.shared[obj]; !ok {
		p := c.fset.Position(pos)
		c.out.shared[obj] = fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
}

// declaredIn reports whether the object's declaration lies inside the
// node's source range.
func declaredIn(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// sharedMutable reports whether aliasing a value of this type across
// shards shares mutable state: anything with reference semantics.
func sharedMutable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// immutableListed reports whether the (pointer-unwrapped) named type is
// on the immutable-by-contract allowlist.
func immutableListed(cfg *Config, t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return slices.Contains(cfg.SharedImmutable, n.Obj().Pkg().Path()+"."+n.Obj().Name())
}
