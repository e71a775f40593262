package lint

import "go/ast"

// checkGoroutine flags `go` statements. Concurrency lives in exactly
// one layer of the simulator: internal/exp, whose worker pool runs
// independent simulations and whose shard executor advances a
// partitioned run between barriers. Everywhere else — the engine, the
// device layer, the flow-control modules, stats — code relies on
// single-goroutine execution for determinism and skips synchronization
// on shared state (collectors, packet pools, the event queues). A
// stray goroutine in those layers is a data race the moment the shard
// executor runs two of them, so the rule bans the statement outright
// rather than waiting for the race detector to catch a schedule that
// exhibits it.
func checkGoroutine(c *Ctx) {
	if inScope(c.Cfg.Executor, c.Pkg.Path) {
		return
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.Report(g.Pos(), "go statement outside internal/exp: the simulator's deterministic layers are single-goroutine by contract (shard-parallelism belongs to the exp executor)")
			}
			return true
		})
	}
}
