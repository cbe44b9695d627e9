package analysis

import (
	"go/ast"
	"go/types"
)

// leaseSummary is buflease's one-level call summary of a module function:
// the buffer-lifetime effects a call has on its arguments and its caller's
// superstep, recovered syntactically from the function body. Summaries let
// facts propagate one level across calls without a full interprocedural
// analysis: a helper that calls Sync ends the caller's superstep (killing
// PayloadBuf leases and delivery views), a helper that stores its
// parameter lets the caller's lease escape, and a helper that returns a
// fresh PayloadBuf lease hands its caller a lease.
type leaseSummary struct {
	// syncs: the body directly calls Context.Sync, Context.Flush, or the
	// internal Context.step, so the caller crosses a superstep boundary.
	syncs bool
	// storesParams: parameter indices the body stores into a struct field,
	// package variable, or through a pointer - the argument escapes the call.
	storesParams map[int]bool
	// returnsLease: a single-result body whose return value is a fresh
	// PayloadBuf lease.
	returnsLease bool
}

func (s *leaseSummary) empty() bool {
	return !s.syncs && !s.returnsLease && len(s.storesParams) == 0
}

// LeaseSummaries builds (once per World) the call summaries for every
// function declared in the loaded module packages, keyed by their type
// objects so call sites in any package can look them up.
func (w *World) LeaseSummaries() map[*types.Func]*leaseSummary {
	if w.leaseSummaries == nil {
		w.leaseSummaries = buildLeaseSummaries(w)
	}
	return w.leaseSummaries
}

func buildLeaseSummaries(w *World) map[*types.Func]*leaseSummary {
	out := make(map[*types.Func]*leaseSummary)
	bsplibPath := w.ModulePath + "/internal/bsplib"
	for _, pkg := range w.modulePkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if sum := summarizeFunc(pkg, fd, bsplibPath); !sum.empty() {
					out[fn] = sum
				}
			}
		}
	}
	return out
}

func summarizeFunc(pkg *Package, decl *ast.FuncDecl, bsplibPath string) *leaseSummary {
	sum := &leaseSummary{storesParams: make(map[int]bool)}
	params := make(map[types.Object]int)
	idx := 0
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, nm := range f.Names {
				if obj := pkg.Info.Defs[nm]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.FuncLit:
			// A closure's effects happen when it runs, which a one-level
			// summary does not model.
			return false
		case *ast.CallExpr:
			switch contextMethodName(pkg.Info, nd, bsplibPath) {
			case "Sync", "Flush", "step":
				sum.syncs = true
			}
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				if !escapingAssignTarget(pkg.Info, lhs) {
					continue
				}
				rhs := nd.Rhs
				if len(nd.Lhs) == len(nd.Rhs) {
					rhs = nd.Rhs[i : i+1]
				}
				for _, r := range rhs {
					for _, pi := range storedParamIndices(pkg.Info, r, params) {
						sum.storesParams[pi] = true
					}
				}
			}
		case *ast.ReturnStmt:
			if len(nd.Results) == 1 {
				if call, ok := ast.Unparen(nd.Results[0]).(*ast.CallExpr); ok && contextMethodName(pkg.Info, call, bsplibPath) == "PayloadBuf" {
					sum.returnsLease = true
				}
			}
		}
		return true
	})
	return sum
}

// escapingAssignTarget reports whether an assignment to this expression
// stores beyond the function's frame: a struct field or qualified name
// (selector), an element of such (index chains), a pointer dereference, or
// a package-level variable.
func escapingAssignTarget(info *types.Info, lhs ast.Expr) bool {
	for {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			lhs = l.X
		case *ast.Ident:
			return isPackageLevelVar(info.Uses[l])
		default:
			return false
		}
	}
}

func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// storedParamIndices collects parameter indices whose identifiers appear in
// the stored expression in a position that retains the value: directly, in
// a slice/composite expression, or through append. Identifiers consumed by
// other calls (len(b), copy into b, encoders) do not retain the argument.
func storedParamIndices(info *types.Info, e ast.Expr, params map[types.Object]int) []int {
	var out []int
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if i, ok := params[info.Uses[v]]; ok {
				out = append(out, i)
			}
		case *ast.SliceExpr:
			walk(v.X)
		case *ast.UnaryExpr:
			walk(v.X)
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
					continue
				}
				walk(elt)
			}
		case *ast.CallExpr:
			// Only append retains arguments in its result, and only when the
			// destination's elements can hold a buffer (append(dst, b...)
			// into a []byte copies the bytes).
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(v.Args) > 0 {
					walk(v.Args[0])
					if appendRetainsArgs(info, v) {
						for _, a := range v.Args[1:] {
							walk(a)
						}
					}
				}
			}
		}
	}
	walk(e)
	return out
}

// appendRetainsArgs reports whether an append call's appended values are
// retained (aliased) by the result rather than copied into it: true when
// the result slice's element type can itself hold a buffer.
func appendRetainsArgs(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return carriesBuffer(sl.Elem())
}

// --- shared classification of the lease-bearing APIs ---

// contextMethodName returns the bsplib.Context method this call invokes or
// "" when it is not one.
func contextMethodName(info *types.Info, call *ast.CallExpr, bsplibPath string) string {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return ""
	}
	named := namedReceiverOf(fn)
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != bsplibPath || obj.Name() != "Context" {
		return ""
	}
	return fn.Name()
}
