package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"quantpar/internal/analysis/flow"
)

// BufLease is the flow-sensitive buffer-lifetime check. The zero-copy
// pipeline hands code superstep-scoped []byte values: bsplib
// Context.PayloadBuf leases and Recv/RecvFrom/RecvMsgs delivery views, both
// reclaimed by the engine at the next Sync/Flush. Using one after that
// reads bytes the next superstep has already overwritten, which shows up
// as nondeterministic run artifacts - the one failure mode this codebase
// cannot tolerate. BufLease tracks those values through the control-flow
// graph and flags leases escaping to fields/globals or goroutines, and
// step-scoped values used past the Sync that killed them.
var BufLease = &Analyzer{
	Name: "buflease",
	Doc:  "track PayloadBuf lease and delivery-view lifetimes through the CFG (escapes, goroutine captures, cross-Sync retention)",
	Run:  runBufLease,
}

// The lattice, ordered so every transfer is monotone under join = max:
// a synchronization promotes step-scoped values (blStepLease, blView) to
// blStale.
const (
	blNone      flow.Val = iota // not a tracked buffer
	blAgg                       // aggregate (slice/struct) holding live leases
	blStepLease                 // Context.PayloadBuf: engine reclaims at next Sync
	blView                      // Recv/RecvFrom/RecvMsgs view: dead after next Sync
	blStale                     // step-scoped value after a Sync/Flush crossed it
)

func blJoin(a, b flow.Val) flow.Val {
	if a > b {
		return a
	}
	return b
}

// isOwnedLease: values whose escape out of the owning frame is a bug.
func isOwnedLease(v flow.Val) bool {
	return v == blAgg || v == blStepLease
}

// isLiveBuffer: values a spawned goroutine must not capture.
func isLiveBuffer(v flow.Val) bool {
	return v == blAgg || v == blStepLease || v == blView
}

func runBufLease(p *Pass) {
	t := &leaseTracker{
		p:          p,
		info:       p.Pkg.Info,
		bsplibPath: p.World.ModulePath + "/internal/bsplib",
		summaries:  p.World.LeaseSummaries(),
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := flow.New(fd.Body)
			in := flow.Solve(g, flow.Semantics{
				Join:     blJoin,
				Transfer: func(n ast.Node, s flow.State) { t.transfer(n, s, false) },
			})
			// Report phase: replay each block from its fixpoint entry state
			// with reporting switched on. Unreachable blocks replay from the
			// bottom state and stay silent.
			for _, blk := range g.Blocks {
				st := in[blk.Index].Clone()
				for _, nd := range blk.Nodes {
					t.transfer(nd, st, true)
				}
			}
		}
	}
}

type leaseTracker struct {
	p          *Pass
	info       *types.Info
	bsplibPath string
	summaries  map[*types.Func]*leaseSummary
}

// transfer applies one CFG node's effect to the state; with report set it
// also emits diagnostics (the solver runs it silently until fixpoint).
func (t *leaseTracker) transfer(n ast.Node, s flow.State, report bool) {
	switch nd := n.(type) {
	case *ast.AssignStmt:
		t.assign(nd, s, report)
	case *ast.DeclStmt:
		t.declStmt(nd, s, report)
	case *ast.RangeStmt:
		t.rangeHeader(nd, s, report)
	case *ast.GoStmt:
		t.goStmt(nd, s, report)
	case *ast.DeferStmt:
		// Arguments are evaluated here; the call's effect happens at the
		// exit block, where the CFG re-presents it as a bare *ast.CallExpr.
		t.checkUses(nd.Call, s, report)
	case *ast.CallExpr:
		// A deferred call executing at function exit.
		t.checkUses(nd, s, report)
		t.callEffects(nd, s, report, true)
	default:
		t.checkUses(n, s, report)
		t.applyEffects(n, s, report)
	}
}

// checkUses flags identifiers read while their buffer is stale. Identifiers
// being wholly overwritten (assignment LHS) are exempt.
func (t *leaseTracker) checkUses(n ast.Node, s flow.State, report bool) {
	if !report {
		return
	}
	skip := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.FuncLit:
			// The body runs later; goStmt handles goroutine captures.
			return false
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					skip[id] = true
				}
			}
		case *ast.Ident:
			if skip[v] {
				return true
			}
			obj := t.info.Uses[v]
			if obj == nil {
				return true
			}
			if s.Get(obj) == blStale {
				t.p.Reportf(v.Pos(), "cross-Sync retention: %s is a superstep-scoped buffer (PayloadBuf lease or delivery view) used after Sync/Flush reclaimed it; copy the bytes out before synchronizing", v.Name)
			}
		}
		return true
	})
}

// applyEffects walks the node for calls with lifetime effects (Sync,
// summarized helpers), skipping function-literal bodies, whose effects
// happen when the literal runs.
func (t *leaseTracker) applyEffects(n ast.Node, s flow.State, report bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			t.callEffects(call, s, report, false)
		}
		return true
	})
}

// callEffects applies one call's lifetime effect. walkLitBody handles a
// deferred closure executing at exit: its body's uses and effects are real
// at that point.
func (t *leaseTracker) callEffects(call *ast.CallExpr, s flow.State, report bool, walkLitBody bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if walkLitBody {
			t.checkUses(lit.Body, s, report)
			t.applyEffects(lit.Body, s, report)
		}
		return
	}
	switch contextMethodName(t.info, call, t.bsplibPath) {
	case "Sync", "Flush", "step":
		killStep(s)
		return
	}
	fn, ok := calleeObject(t.info, call).(*types.Func)
	if !ok {
		return
	}
	sum := t.summaries[fn]
	if sum == nil {
		return
	}
	if sum.syncs {
		killStep(s)
	}
	for i, arg := range call.Args {
		id, _ := ast.Unparen(arg).(*ast.Ident)
		if id == nil {
			continue
		}
		obj := t.info.Uses[id]
		if obj == nil {
			continue
		}
		if sum.storesParams[i] && report && isOwnedLease(s.Get(obj)) {
			t.p.Reportf(arg.Pos(), "lease escape: %s is passed to %s, which stores its argument beyond the call frame; the buffer outlives its owner", id.Name, fn.Name())
		}
	}
}

// killStep ends the current superstep: every step-scoped value dies.
func killStep(s flow.State) {
	for k, v := range s {
		if v == blStepLease || v == blView {
			s[k] = blStale
		}
	}
}

// valueOf computes the abstract value of an expression in the given state.
func (t *leaseTracker) valueOf(e ast.Expr, s flow.State) flow.Val {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return s.Get(t.info.Uses[v])
	case *ast.CallExpr:
		switch contextMethodName(t.info, v, t.bsplibPath) {
		case "PayloadBuf":
			return blStepLease
		case "Recv", "RecvFrom", "RecvMsgs":
			return blView
		}
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := t.info.Uses[id].(*types.Builtin); isBuiltin && len(v.Args) > 0 {
				res := t.valueOf(v.Args[0], s)
				// append(dst, src...) into a byte slice copies the bytes;
				// only element types that can hold a buffer retain the
				// appended values.
				if appendRetainsArgs(t.info, v) {
					for _, a := range v.Args[1:] {
						if t.valueOf(a, s) != blNone {
							res = blAgg
						}
					}
				}
				return res
			}
		}
		if fn, ok := calleeObject(t.info, v).(*types.Func); ok {
			if sum := t.summaries[fn]; sum != nil && sum.returnsLease {
				return blStepLease
			}
		}
		return blNone
	case *ast.SliceExpr:
		// A sub-slice aliases the same backing array.
		return t.valueOf(v.X, s)
	case *ast.IndexExpr:
		if !carriesBuffer(t.info.Types[e].Type) {
			return blNone
		}
		if xv := t.valueOf(v.X, s); xv != blAgg {
			return xv
		}
		return blStepLease
	case *ast.SelectorExpr:
		// A field of a view struct (msg.Payload) is still a view.
		if !carriesBuffer(t.info.Types[e].Type) {
			return blNone
		}
		switch xv := t.valueOf(v.X, s); xv {
		case blView, blStale:
			return xv
		}
		return blNone
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return t.valueOf(v.X, s)
		}
		return blNone
	case *ast.StarExpr:
		return t.valueOf(v.X, s)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if t.valueOf(elt, s) != blNone {
				return blAgg
			}
		}
		return blNone
	}
	return blNone
}

// carriesBuffer reports whether a value of this type can hold (a reference
// to) a tracked buffer: slices and structs do, scalar elements (the bytes
// inside a []byte) do not.
func carriesBuffer(typ types.Type) bool {
	if typ == nil {
		return false
	}
	switch typ.Underlying().(type) {
	case *types.Slice, *types.Struct, *types.Pointer, *types.Interface:
		return true
	}
	return false
}

func (t *leaseTracker) assign(nd *ast.AssignStmt, s flow.State, report bool) {
	t.checkUses(nd, s, report)
	t.applyEffects(nd, s, report)
	vals := make([]flow.Val, len(nd.Lhs))
	if len(nd.Lhs) == len(nd.Rhs) {
		// Evaluate every RHS before binding (a, b = b, a).
		for i := range nd.Rhs {
			vals[i] = t.valueOf(nd.Rhs[i], s)
		}
	}
	for i, lhs := range nd.Lhs {
		t.bind(lhs, vals[i], nd.Tok, s, report)
	}
}

// bind stores an abstract value into an assignment target, reporting when a
// live lease escapes the frame through it.
func (t *leaseTracker) bind(lhs ast.Expr, rv flow.Val, tok token.Token, s flow.State, report bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := t.info.Defs[l]
		if obj == nil {
			obj = t.info.Uses[l]
		}
		if report && isOwnedLease(rv) && isPackageLevelVar(obj) {
			t.p.Reportf(l.Pos(), "lease escape: PayloadBuf lease stored in package-level variable %s outlives its owner's frame and superstep", l.Name)
		}
		if tok == token.ASSIGN || tok == token.DEFINE {
			s.Set(obj, rv)
		}
	case *ast.SelectorExpr:
		if report && isOwnedLease(rv) {
			t.p.Reportf(l.Pos(), "lease escape: PayloadBuf lease stored in field or qualified variable %s outlives its owner's frame; the next superstep reuses it while the field still points at it", selectorString(l))
		}
	case *ast.StarExpr:
		if report && isOwnedLease(rv) {
			t.p.Reportf(l.Pos(), "lease escape: PayloadBuf lease stored through a pointer outlives its owner's frame")
		}
	case *ast.IndexExpr:
		base := l.X
		for {
			if idx, ok := ast.Unparen(base).(*ast.IndexExpr); ok {
				base = idx.X
				continue
			}
			break
		}
		switch bx := ast.Unparen(base).(type) {
		case *ast.Ident:
			obj := t.info.Uses[bx]
			if isPackageLevelVar(obj) {
				if report && isOwnedLease(rv) {
					t.p.Reportf(l.Pos(), "lease escape: PayloadBuf lease stored in an element of package-level %s outlives its owner's frame", bx.Name)
				}
				return
			}
			// Element of a local container: the container now holds a lease.
			if isOwnedLease(rv) && obj != nil {
				s.Set(obj, blJoin(s.Get(obj), blAgg))
			}
		case *ast.SelectorExpr:
			if report && isOwnedLease(rv) {
				t.p.Reportf(l.Pos(), "lease escape: PayloadBuf lease stored in an element of field %s outlives its owner's frame", selectorString(bx))
			}
		}
	}
}

func selectorString(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

func (t *leaseTracker) declStmt(nd *ast.DeclStmt, s flow.State, report bool) {
	t.checkUses(nd, s, report)
	t.applyEffects(nd, s, report)
	gd, ok := nd.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, nm := range vs.Names {
			s.Set(t.info.Defs[nm], t.valueOf(vs.Values[i], s))
		}
	}
}

// rangeHeader models one execution of a range statement's header: evaluate
// the ranged expression, then bind the iteration variables.
func (t *leaseTracker) rangeHeader(nd *ast.RangeStmt, s flow.State, report bool) {
	t.checkUses(nd.X, s, report)
	t.applyEffects(nd.X, s, report)
	var elem flow.Val
	switch t.valueOf(nd.X, s) {
	case blAgg:
		elem = blStepLease // element of a lease container is a lease
	case blView:
		elem = blView // element of a delivery batch ([]bsplib.Message) is a view
	}
	bindVar := func(e ast.Expr, v flow.Val) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := t.info.Defs[id]
		if obj == nil {
			obj = t.info.Uses[id]
		}
		s.Set(obj, v)
	}
	if nd.Key != nil {
		bindVar(nd.Key, blNone) // keys are indices, never buffers
	}
	if nd.Value != nil {
		bindVar(nd.Value, elem)
	}
}

// goStmt flags live buffers handed to a spawned goroutine: the goroutine
// runs concurrently with (and typically past) the owner's Sync, so
// the capture is a lifetime race even when every individual use looks fine.
func (t *leaseTracker) goStmt(nd *ast.GoStmt, s flow.State, report bool) {
	t.checkUses(nd.Call, s, report)
	t.applyEffects(nd.Call, s, report)
	if !report {
		return
	}
	flag := func(id *ast.Ident, how string) {
		obj := t.info.Uses[id]
		if obj == nil || !isLiveBuffer(s.Get(obj)) {
			return
		}
		// Ignore variables declared inside the literal itself.
		if obj.Pos() >= nd.Pos() && obj.Pos() < nd.End() {
			return
		}
		t.p.Reportf(id.Pos(), "goroutine capture: buffer %s is %s a spawned goroutine, which can outlive the Sync that reclaims it; hand the goroutine its own copy", id.Name, how)
	}
	if lit, ok := ast.Unparen(nd.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				flag(id, "captured by")
			}
			return true
		})
	}
	for _, arg := range nd.Call.Args {
		ast.Inspect(arg, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				flag(id, "passed to")
			}
			return true
		})
	}
}
