package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimTime guards the floating-point simulated-time representation.
// sim.Time is an alias of float64, so `==` and `!=` between Time values
// compile happily but are almost always wrong once costs stop being exact
// dyadic sums — use a tolerance or compare orderings instead. Where an
// exact comparison is intentional (FIFO tie-breaking on equal timestamps),
// suppress with //qpvet:ignore simtime and say why.
//
// Because the alias erases to float64 under go/types, Time values are
// recognized syntactically: any expression rooted in an object whose
// declaration spells sim.Time (collected module-wide at load).
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "flag ==/!= on sim.Time values",
	Run:  runSimTime,
}

func runSimTime(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			node, ok := n.(*ast.BinaryExpr)
			if !ok || (node.Op != token.EQL && node.Op != token.NEQ) {
				return true
			}
			if p.isTimeExpr(node.X) || p.isTimeExpr(node.Y) {
				p.Reportf(node.Pos(), "%s compares sim.Time values exactly (float64 microseconds); use a tolerance or an ordering comparison", node.Op)
			}
			return true
		})
	}
}

// isTimeExpr reports whether e syntactically traces to a declared sim.Time:
// a marked identifier, field, or element of a marked slice/array/map; a
// call to a function declared to return sim.Time; or arithmetic over such
// expressions. The expression must also actually be a float64, which keeps
// map/slice identifiers themselves (e.g. `m == nil`) out of scope.
func (p *Pass) isTimeExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		return p.exprIsFloat64(e) && p.World.TimeObjs[p.Pkg.Info.Uses[x]]
	case *ast.SelectorExpr:
		return p.exprIsFloat64(e) && p.World.TimeObjs[p.Pkg.Info.Uses[x.Sel]]
	case *ast.IndexExpr:
		return p.exprIsFloat64(e) && p.isTimeContainer(x.X)
	case *ast.CallExpr:
		obj := calleeObject(p.Pkg.Info, x)
		return obj != nil && p.World.TimeObjs[obj]
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return p.isTimeExpr(x.X) || p.isTimeExpr(x.Y)
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return p.isTimeExpr(x.X)
		}
	}
	return false
}

// isTimeContainer reports whether e names an object declared as a
// slice/array/map of sim.Time (marked at load time alongside scalars).
func (p *Pass) isTimeContainer(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.World.TimeObjs[p.Pkg.Info.Uses[x]]
	case *ast.SelectorExpr:
		return p.World.TimeObjs[p.Pkg.Info.Uses[x.Sel]]
	}
	return false
}

func (p *Pass) exprIsFloat64(e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Float64
}
