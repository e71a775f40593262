package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is floodlint's small dataflow engine: an intraprocedural
// taint analysis over the typed AST that the ordering and detwrite
// rules share. Taint starts at nondeterminism sources — map iteration
// variables, wall-clock reads, pointer-identity conversions, runtime
// shape queries — and propagates through assignments to a fixpoint.
//
// The propagation is deliberately conservative (no kill on
// reassignment: once a variable has held a nondeterministic value
// anywhere in the function, later uses are flagged), with one
// surgical exception: compound commutative accumulation (`s += v`,
// `s |= v`, ...) does not taint the accumulator, because the folded
// result is independent of iteration order. That is exactly the
// order-independent-reduction carve-out the maprange rule's allowlist
// documents, made mechanical.

// TaintReason explains why a value is nondeterministic: the source
// kind and the position where the taint entered the function.
type TaintReason struct {
	Why string
	Pos token.Pos
}

// taintState is the per-function fixpoint result.
type taintState struct {
	pkg     *Package
	tainted map[types.Object]*TaintReason
}

// commutativeOps are compound assignments whose fold is independent of
// operand order; accumulating tainted values through them launders the
// order-dependence away. Division, modulo and shifts are excluded —
// their folds depend on operand order.
var commutativeOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.AND_ASSIGN: true,
	token.OR_ASSIGN:  true,
	token.XOR_ASSIGN: true,
}

// taintFunc runs the taint fixpoint over one function body.
func taintFunc(pkg *Package, body *ast.BlockStmt) *taintState {
	t := &taintState{pkg: pkg, tainted: make(map[types.Object]*TaintReason)}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if r := t.rangeTaint(n); r != nil {
					changed = t.taintIdent(n.Key, r) || changed
					changed = t.taintIdent(n.Value, r) || changed
				}
			case *ast.AssignStmt:
				changed = t.assign(n) || changed
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if r := t.ExprTaint(n.Values[i]); r != nil {
							changed = t.taintIdent(name, r) || changed
						}
					}
				}
			}
			return true
		})
	}
	return t
}

// rangeTaint classifies a range statement's iteration variables: over
// a map the order is randomized per run, and over an already-tainted
// container the elements inherit the container's reason.
func (t *taintState) rangeTaint(rng *ast.RangeStmt) *TaintReason {
	tv, ok := t.pkg.Info.Types[rng.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		return &TaintReason{Why: "map iteration order", Pos: rng.Pos()}
	}
	return t.ExprTaint(rng.X)
}

// assign propagates taint across one assignment statement.
func (t *taintState) assign(as *ast.AssignStmt) bool {
	if commutativeOps[as.Tok] {
		return false // order-independent accumulation
	}
	changed := false
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if r := t.ExprTaint(as.Rhs[i]); r != nil {
				changed = t.taintIdent(rootIdent(as.Lhs[i]), r) || changed
			}
		}
		return changed
	}
	// Tuple form (a, b := f()): one tainted source taints every target.
	for _, rhs := range as.Rhs {
		if r := t.ExprTaint(rhs); r != nil {
			for _, lhs := range as.Lhs {
				changed = t.taintIdent(rootIdent(lhs), r) || changed
			}
			break
		}
	}
	return changed
}

// taintIdent taints the variable an identifier names. Assignments pass
// the root of a selector/index chain: writing a tainted element makes
// the whole container suspect for later reads.
func (t *taintState) taintIdent(e ast.Expr, r *TaintReason) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := identObj(t.pkg.Info, id)
	v, ok := obj.(*types.Var)
	if !ok || t.tainted[v] != nil {
		return false
	}
	t.tainted[v] = r
	return true
}

// ExprTaint reports why an expression is nondeterministic (nil when it
// is clean): it mentions a tainted variable, calls a nondeterminism
// source, or converts a pointer to its integer identity.
func (t *taintState) ExprTaint(e ast.Expr) *TaintReason {
	var found *TaintReason
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := identObj(t.pkg.Info, n).(*types.Var); ok {
				if r := t.tainted[v]; r != nil {
					found = r
				}
			}
		case *ast.CallExpr:
			if r := callTaint(t.pkg, n); r != nil {
				found = r
			}
		}
		return true
	})
	return found
}

// callTaint classifies a call (or conversion) expression as a
// nondeterminism source.
func callTaint(pkg *Package, call *ast.CallExpr) *TaintReason {
	if fn := callee(pkg.Info, call); fn != nil {
		if isPkgFunc(fn, "time", wallClock...) {
			return &TaintReason{Why: "wall clock (time." + fn.Name() + ")", Pos: call.Pos()}
		}
		if isPkgFunc(fn, "runtime", "GOMAXPROCS", "NumGoroutine", "NumCPU") {
			return &TaintReason{Why: "runtime shape (runtime." + fn.Name() + ")", Pos: call.Pos()}
		}
		return nil
	}
	// Conversion to uintptr from a pointer: the value is the allocation
	// address, which differs run to run.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if at, ok := pkg.Info.Types[call.Args[0]]; ok && pointerish(at.Type) {
				return &TaintReason{Why: "pointer identity", Pos: call.Pos()}
			}
		}
	}
	return nil
}

// pointerish reports whether a type carries an address (so converting
// it to uintptr yields run-varying identity).
func pointerish(t types.Type) bool {
	switch b := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// rootIdent walks a selector/index/star/paren chain to its leftmost
// identifier (nil when the root is not an identifier, e.g. a call).
func rootIdent(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
