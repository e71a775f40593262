package lint

import (
	"go/ast"
	"go/types"
)

// ban is one syntactic rule: a node shape that is wrong wherever it
// appears (with exec set, wherever outside the Executor packages).
// match reports whether n has the shape, and the arguments for msg.
type ban struct {
	msg   string
	exec  bool
	match func(info *types.Info, n ast.Node) (args []any, ok bool)
}

// wallClock names the time functions that read the host clock.
var wallClock = []string{"Now", "Since", "Until"}

// bans holds the seven syntactic rules, keyed by rule name.
var bans = map[string]ban{
	// A wall-clock read makes reruns diverge; only Engine.Now exists
	// inside a run.
	"walltime": {"call to time.%s reads the wall clock; simulations must be a pure function of (config, seed) — use sim time (Engine.Now)",
		false, calls("time", wallClock...)},
	// math/rand's global source is seeded from runtime entropy.
	"mathrand": {"import of %s; draw from the seeded sim.Rand instead", false, func(_ *types.Info, n ast.Node) ([]any, bool) {
		imp, ok := n.(*ast.ImportSpec)
		if !ok || imp.Path.Value != `"math/rand"` && imp.Path.Value != `"math/rand/v2"` {
			return nil, false
		}
		return []any{imp.Path.Value}, true
	}},
	// Configuration enters through config structs and the seed only.
	"envread": {"call to os.%s reads ambient environment; pass configuration explicitly",
		false, calls("os", "Getenv", "LookupEnv", "Environ")},
	// With several channels ready the runtime picks a case at random.
	"multiselect": {"select over %d channels; the runtime picks ready cases at random — use a deterministic ordering", false, func(_ *types.Info, n ast.Node) ([]any, bool) {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return nil, false
		}
		comms := 0
		for _, cl := range sel.Body.List {
			if cl.(*ast.CommClause).Comm != nil {
				comms++
			}
		}
		return []any{comms}, comms >= 2
	}},
	// Map order is randomized per run; order-independent reductions
	// carry an allow, everything else sorts its keys.
	"maprange": {"range over %s iterates in randomized order; sort the keys first (or //lint:allow maprange for an order-independent reduction)", false, func(info *types.Info, n ast.Node) ([]any, bool) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return nil, false
		}
		t := info.TypeOf(rng.X)
		_, isMap := t.Underlying().(*types.Map)
		return []any{shortType(t)}, isMap
	}},
	// exp wraps a run's panic into a *RunError at one boundary; a bare
	// recover() elsewhere swallows it first. Tests are not loaded.
	"recover": {"bare recover() outside the run executor swallows panics before exp's run boundary can wrap them into a structured RunError; let the panic propagate", true, func(info *types.Info, n ast.Node) ([]any, bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		id, _ := ast.Unparen(call.Fun).(*ast.Ident)
		b, ok := info.Uses[id].(*types.Builtin)
		return nil, ok && b.Name() == "recover"
	}},
	// The deterministic layers skip synchronization on shared state, so
	// a goroutine there races the moment the shard executor runs two.
	"goroutine": {"go statement outside internal/exp: the simulator's deterministic layers are single-goroutine by contract (shard-parallelism belongs to the exp executor)", true, func(_ *types.Info, n ast.Node) ([]any, bool) {
		_, ok := n.(*ast.GoStmt)
		return nil, ok
	}},
}

// calls matches a call to one of the named functions of package pkg;
// the finding's argument is the function's name.
func calls(pkg string, names ...string) func(*types.Info, ast.Node) ([]any, bool) {
	return func(info *types.Info, n ast.Node) ([]any, bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		fn := callee(info, call)
		if !isPkgFunc(fn, pkg, names...) {
			return nil, false
		}
		return []any{fn.Name()}, true
	}
}

// checkBan walks every file with the current rule's row of the table.
func checkBan(c *Ctx) {
	b := bans[c.rule]
	if b.exec && inScope(c.Cfg.Executor, c.Pkg.Path) {
		return
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if args, ok := b.match(c.Pkg.Info, n); ok {
				c.Report(n.Pos(), b.msg, args...)
			}
			return true
		})
	}
}
