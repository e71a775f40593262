package lint

import (
	"go/ast"
	"go/types"
)

// checkPool enforces packet-pool discipline in the packages that move
// packets (device and the flow-control modules). Two checks:
//
//  1. directalloc: constructing a packet outside the Network pool —
//     packet.NewData / packet.NewCtrl calls or packet.Packet composite
//     literals — defeats the recycling that removes the dominant GC
//     pressure of high-rate runs. The pool's own refill point carries
//     an //lint:allow.
//
//  2. leak: a local variable holding a freshly acquired pooled packet
//     (Network.NewCtrl / newData / getPkt) that is never handed off —
//     never passed to any call, returned, or stored into memory — can
//     only be dropped on the floor, which leaks its buffers until GC
//     and silently shrinks the pool. The check is a conservative,
//     CFG-free use scan: any hand-off anywhere in the function
//     satisfies it, so it cannot false-positive on real code paths.
func checkPool(c *Ctx) {
	if !inScope(c.Cfg.Pool, c.Pkg.Path) {
		return
	}
	info := c.Pkg.Info
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := callee(info, n); isPkgFunc(fn, c.Cfg.path("packet"), "NewData", "NewCtrl") {
					c.Report(n.Pos(), "packet.%s allocates outside the pool; acquire through the Network pool (Network.NewCtrl / newData) so the packet is recycled", fn.Name())
				}
			case *ast.CompositeLit:
				if isNamed(info.TypeOf(n), c.Cfg.path("packet"), "Packet") {
					c.Report(n.Pos(), "packet.Packet literal allocates outside the pool; acquire through the Network pool so the packet is recycled")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPoolLeaks(c, n)
				}
			}
			return true
		})
	}
}

// isPoolAcquire reports whether a call mints a pooled packet: a method
// named NewCtrl, newData or getPkt on device.Network.
func isPoolAcquire(c *Ctx, call *ast.CallExpr) bool {
	fn := callee(c.Pkg.Info, call)
	return isPkgFunc(fn, c.Cfg.path("device"), "NewCtrl", "newData", "getPkt") &&
		recvNamed(fn) == "Network"
}

// checkPoolLeaks scans one function for acquired-and-dropped packets.
func checkPoolLeaks(c *Ctx, fd *ast.FuncDecl) {
	info := c.Pkg.Info
	// Pass 1: locals directly assigned a pool acquisition.
	acquired := make(map[types.Object]*ast.Ident)
	var order []types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isPoolAcquire(c, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id] // plain `=` assignment to an existing var
			}
			if obj != nil && acquired[obj] == nil {
				acquired[obj] = id
				order = append(order, obj)
			}
		}
		return true
	})
	if len(acquired) == 0 {
		return
	}
	// Pass 2: a use hands the packet off if it appears as a call
	// argument, a return value, a stored value, or a composite-literal
	// element. Method calls on the packet itself and field reads/writes
	// keep it local and do not count.
	handedOff := make(map[types.Object]bool)
	handOff := func(es ...ast.Expr) {
		for _, e := range es {
			if obj := identObj(info, e); obj != nil && acquired[obj] != nil {
				handedOff[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			handOff(n.Args...)
		case *ast.ReturnStmt:
			handOff(n.Results...)
		case *ast.AssignStmt:
			handOff(n.Rhs...)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				handOff(el)
			}
		}
		return true
	})
	for _, obj := range order {
		if !handedOff[obj] {
			id := acquired[obj]
			c.Report(id.Pos(), "pooled packet %s is acquired but never handed off (sent, returned, stored, or recycled); it leaks from the pool", id.Name)
		}
	}
}

// identObj resolves an expression to the object of a bare identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
