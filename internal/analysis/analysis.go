package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Analyzer is one check: a named pass over a type-checked package.
type Analyzer struct {
	// Name identifies the check in diagnostics and in //qpvet:ignore
	// directives.
	Name string
	// Doc is a one-line description shown by `qpvet -list`.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one target package.
type Pass struct {
	Analyzer *Analyzer
	World    *World
	Pkg      *Package
	Fset     *token.FileSet

	diags *[]Diagnostic
	sup   *suppressions
}

// Reportf records a diagnostic at pos unless a //qpvet:ignore directive
// suppresses this check on that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.sup.covers(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, FaultRNG, SimTime, RNGStream}
}

// Run applies the analyzers to every target package of the world and
// returns the surviving diagnostics sorted by position.
func (w *World) Run(analyzers []*Analyzer) []Diagnostic {
	diags, _ := w.run(analyzers)
	return diags
}

// RunWithAudit runs the full suite, as qpvet does, and also audits every
// //qpvet:ignore directive in the target packages: a directive that
// suppressed nothing is returned as stale. So is one naming an unknown
// check, which is a typo.
func (w *World) RunWithAudit() ([]Diagnostic, []StaleSuppression) {
	return w.run(Analyzers())
}

func (w *World) run(analyzers []*Analyzer) ([]Diagnostic, []StaleSuppression) {
	var diags []Diagnostic
	var sups []*suppressions
	for _, pkg := range w.Targets {
		sup := collectSuppressions(w.Fset, pkg.Files)
		sups = append(sups, sup)
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				World:    w,
				Pkg:      pkg,
				Fset:     w.Fset,
				diags:    &diags,
				sup:      sup,
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})

	var stale []StaleSuppression
	for _, sup := range sups {
		for _, d := range sup.all {
			if !d.used {
				stale = append(stale, StaleSuppression{Pos: d.pos, Checks: d.checks})
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i].Pos, stale[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags, stale
}

// --- suppression directives ---

// directive is one //qpvet:ignore comment: where it sits, which checks it
// names ("*" for all), and whether it actually suppressed anything - the
// raw material of the stale-suppression audit.
type directive struct {
	pos    token.Position
	checks []string
	used   bool
}

func (d *directive) names(check string) bool {
	for _, c := range d.checks {
		if c == check || c == "*" {
			return true
		}
	}
	return false
}

// suppressions indexes a package's directives by filename and covered line.
type suppressions struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

// covers reports whether some directive suppresses the check at pos, and
// marks every such directive as used (live) for the audit.
func (s *suppressions) covers(pos token.Position, check string) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, d := range lines[pos.Line] {
		if d.names(check) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// collectSuppressions indexes //qpvet:ignore directives. A directive
// suppresses the listed checks (or all checks when none are listed) on its
// own line and on the line that follows, so both trailing and
// standalone-line placements work:
//
//	t := wall()            //qpvet:ignore determinism -- reporting only
//	//qpvet:ignore simtime -- exact tie-break is intentional
//	if a == b { ... }
//
// Everything after "--" is a free-form justification.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	sup := &suppressions{byLine: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//qpvet:ignore")
				if !ok {
					continue
				}
				if reason := strings.SplitN(text, "--", 2); len(reason) > 0 {
					text = reason[0]
				}
				checks := strings.FieldsFunc(text, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
				if len(checks) == 0 {
					checks = []string{"*"}
				}
				pos := fset.Position(c.Pos())
				d := &directive{pos: pos, checks: checks}
				sup.all = append(sup.all, d)
				lines := sup.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					sup.byLine[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					lines[line] = append(lines[line], d)
				}
			}
		}
	}
	return sup
}

// StaleSuppression is a //qpvet:ignore directive that suppressed no
// diagnostic: either the code it excused was fixed (delete the directive)
// or the check name is misspelled.
type StaleSuppression struct {
	Pos    token.Position
	Checks []string
}

func (s StaleSuppression) String() string {
	return fmt.Sprintf("%s:%d:%d: stale //qpvet:ignore %s: directive suppresses no diagnostic; delete it (or fix the check name)",
		s.Pos.Filename, s.Pos.Line, s.Pos.Column, strings.Join(s.Checks, ","))
}

// WriteText prints the findings, then the stale directives, one per line in
// file:line:col form with paths relative to root.
func WriteText(w io.Writer, diags []Diagnostic, stale []StaleSuppression, root string) {
	for _, d := range diags {
		d.Pos.Filename = relativeTo(root, d.Pos.Filename)
		fmt.Fprintln(w, d)
	}
	for _, s := range stale {
		s.Pos.Filename = relativeTo(root, s.Pos.Filename)
		fmt.Fprintln(w, s)
	}
}

func relativeTo(root, filename string) string {
	if rel, ok := strings.CutPrefix(filename, root+"/"); ok {
		return rel
	}
	return filename
}

// --- shared AST/type helpers used by the analyzers ---

// calleeObject resolves the object a call expression invokes: the function,
// method, or builtin named by the call's Fun, unwrapping parentheses.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is a function (or method) declared in the
// package with the given import path, with one of the given names.
func isPkgFunc(obj types.Object, pkgPath string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// namedReceiverOf returns the defined type of fn's receiver (unwrapping one
// pointer), or nil if fn is not a method.
func namedReceiverOf(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isConversion reports whether the call expression is a type conversion
// rather than a function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
