package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkUnitsMix enforces units hygiene outside internal/units itself.
// The typed units (Time/Duration, ByteSize, BitRate) exist so that the
// compiler rejects dimensionally nonsense arithmetic; stripping them
// with int64()/float64() conversions and combining different
// dimensions raw recreates exactly the bug class they prevent (and
// usually also reintroduces rounding drift that TxTime/BytesOver/Rate
// handle exactly). Two shapes are flagged:
//
//   - a binary arithmetic expression whose two operands are both
//     conversions of units values of different dimensions, e.g.
//     float64(bytes) / float64(dur) — that is units.Rate's job;
//
//   - a direct cross-dimension conversion, e.g. units.ByteSize(rate).
//
// Same-dimension normalisation (float64(fct) / float64(ideal)) stays
// legal: it is how reporting code computes ratios.
func checkUnitsMix(c *Ctx) {
	units := c.Cfg.path("units")
	if c.Pkg.Path == units {
		return
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
				default:
					return true
				}
				ldim, rdim := convDim(c, n.X), convDim(c, n.Y)
				if ldim != "" && rdim != "" && ldim != rdim {
					c.Report(n.Pos(), "raw arithmetic mixes %s and %s stripped of their units; use the units helpers (TxTime/BytesOver/Rate) or keep the typed values", ldim, rdim)
				}
			case *ast.CallExpr:
				to, from := conversion(c.Pkg.Info, n)
				if dst, src := unitsDim(to, units), unitsDim(from, units); dst != "" && src != "" && src != dst {
					c.Report(n.Pos(), "conversion from %s to %s changes units dimension without arithmetic; use the units helpers (TxTime/BytesOver/Rate)", src, dst)
				}
			}
			return true
		})
	}
}

// convDim classifies an operand: a conversion to a basic numeric type
// whose argument is a units value returns that value's dimension.
func convDim(c *Ctx, e ast.Expr) string {
	if to, from := conversion(c.Pkg.Info, e); to != nil {
		if _, ok := to.Underlying().(*types.Basic); ok {
			return unitsDim(from, c.Cfg.path("units"))
		}
	}
	return ""
}

// conversion returns the target and operand types of a conversion
// T(x), or nils when e is not one.
func conversion(info *types.Info, e ast.Expr) (to, from types.Type) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
		return nil, nil
	}
	return info.TypeOf(call.Fun), info.TypeOf(call.Args[0])
}
