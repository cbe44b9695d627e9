package analysis

import (
	"go/token"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// want is one golden expectation: the analyzer must report a diagnostic on
// this line whose message contains the substring.
type want struct {
	file string
	line int
	sub  string
}

var (
	wantPrefix = regexp.MustCompile(`//\s*want\s`)
	wantQuoted = regexp.MustCompile(`"([^"]*)"`)
)

// collectWants extracts `// want "substring"` expectations from a loaded
// fixture package. Several quoted substrings on one comment mean several
// expected diagnostics on that line.
func collectWants(w *World, pkg *Package) []want {
	var wants []want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !wantPrefix.MatchString(c.Text) {
					continue
				}
				pos := w.Fset.Position(c.Pos())
				for _, m := range wantQuoted.FindAllStringSubmatch(c.Text, -1) {
					wants = append(wants, want{file: pos.Filename, line: pos.Line, sub: m[1]})
				}
			}
		}
	}
	return wants
}

// loadFixture loads testdata/<name> as a single-package world.
func loadFixture(t *testing.T, name string) (*World, *Package) {
	t.Helper()
	w, err := Load("testdata/"+name, []string{"."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(w.Targets) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", name, len(w.Targets))
	}
	return w, w.Targets[0]
}

// TestGoldenFixtures runs each analyzer over its fixture package(s) and
// demands an exact match between reported diagnostics and want comments:
// every want matched by a diagnostic on its line, every diagnostic claimed
// by a want, and at least one firing per fixture.
func TestGoldenFixtures(t *testing.T) {
	// Analyzers with behaviour beyond their primary testdata/<name> fixture
	// list additional fixture directories here.
	extraFixtures := map[string][]string{
		"rngstream": {"rngstreampar"},
	}
	for _, a := range Analyzers() {
		for _, fixture := range append([]string{a.Name}, extraFixtures[a.Name]...) {
			a, fixture := a, fixture
			t.Run(fixture, func(t *testing.T) {
				w, pkg := loadFixture(t, fixture)
				diags := w.Run([]*Analyzer{a})
				wants := collectWants(w, pkg)
				if len(wants) == 0 {
					t.Fatalf("fixture %s has no want expectations", fixture)
				}

				matched := make([]bool, len(diags))
				for _, wt := range wants {
					found := false
					for i, d := range diags {
						if matched[i] || d.Pos.Filename != wt.file || d.Pos.Line != wt.line {
							continue
						}
						if strings.Contains(d.Message, wt.sub) {
							matched[i] = true
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s:%d: want diagnostic containing %q, got none", wt.file, wt.line, wt.sub)
					}
				}
				for i, d := range diags {
					if !matched[i] {
						t.Errorf("unexpected diagnostic: %s", d)
					}
				}
			})
		}
	}
}

// TestSuppressionDirective checks the //qpvet:ignore machinery directly:
// the determinism fixture contains a suppressed time.Now call that must not
// surface, but removing the directive's effect (running via a world with no
// suppressions is not possible from outside, so instead) we assert that the
// suppressed line would otherwise fire by locating the directive.
func TestSuppressionDirective(t *testing.T) {
	w, pkg := loadFixture(t, "determinism")
	diags := w.Run([]*Analyzer{Determinism})

	// Find the line carrying the ignore directive.
	directiveLine := 0
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//qpvet:ignore") {
					directiveLine = w.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	if directiveLine == 0 {
		t.Fatal("determinism fixture has no //qpvet:ignore directive")
	}
	for _, d := range diags {
		if d.Pos.Line == directiveLine {
			t.Errorf("diagnostic on suppressed line %d: %s", directiveLine, d)
		}
	}
}

// TestWriteText pins qpvet's output: findings, then stale directives, one
// per line in file:line:col form, with paths relative to the root.
func TestWriteText(t *testing.T) {
	var buf strings.Builder
	WriteText(&buf,
		[]Diagnostic{{Pos: token.Position{Filename: "/mod/internal/sim/a.go", Line: 3, Column: 2}, Check: "simtime", Message: "exact comparison"}},
		[]StaleSuppression{{Pos: token.Position{Filename: "/mod/internal/sim/b.go", Line: 7, Column: 11}, Checks: []string{"determinism"}}},
		"/mod")
	want := "internal/sim/a.go:3:2: simtime: exact comparison\n" +
		"internal/sim/b.go:7:11: stale //qpvet:ignore determinism: directive suppresses no diagnostic; delete it (or fix the check name)\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteText printed\n%s\nwant\n%s", got, want)
	}
}

// TestRepoIsClean is the in-tree form of the CI gate: the analyzer suite
// must pass over the whole module, and every in-tree //qpvet:ignore
// directive must still suppress something.
func TestRepoIsClean(t *testing.T) {
	w, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, stale := w.RunWithAudit()
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	for _, s := range stale {
		t.Errorf("%s", s)
	}
}

// TestFaultRNGInjectorClean pins the shipping contract behind the faultrng
// check: the real fault-injection layer draws every decision from a
// coordinate-keyed Split stream, so the analyzer must stay silent on it.
func TestFaultRNGInjectorClean(t *testing.T) {
	w, err := Load("../..", []string{"./internal/faults"})
	if err != nil {
		t.Fatalf("loading internal/faults: %v", err)
	}
	for _, d := range w.Run([]*Analyzer{FaultRNG}) {
		t.Errorf("faultrng fired on the injector itself: %s", d)
	}
}

// TestTimeObjsCollected guards the alias-recovery machinery the simtime
// analyzer depends on: loading the sim package must mark Time-typed
// declarations even though go/types erases the alias.
func TestTimeObjsCollected(t *testing.T) {
	w, err := Load("../..", []string{"./internal/sim"})
	if err != nil {
		t.Fatalf("loading internal/sim: %v", err)
	}
	names := make(map[string]bool)
	for obj := range w.TimeObjs {
		names[obj.Name()] = true
	}
	for _, wantName := range []string{"At", "progressAt"} {
		if !names[wantName] {
			t.Errorf("TimeObjs missing %q; have %v", wantName, keys(names))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPatternExpansion checks tree-walk pattern semantics: testdata is
// excluded from "./..." walks but loadable directly, and a walk finds the
// packages nested under a directory that holds no Go files itself.
func TestPatternExpansion(t *testing.T) {
	w, err := Load("../..", []string{"./internal/analysis/..."})
	if err != nil {
		t.Fatalf("loading subtree: %v", err)
	}
	for _, pkg := range w.Targets {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("tree walk included testdata package %s", pkg.Path)
		}
	}
	if len(w.Targets) != 1 {
		t.Errorf("expected the analysis package alone, got %d targets", len(w.Targets))
	}

	w, err = Load("../..", []string{"./internal/router/..."})
	if err != nil {
		t.Fatalf("loading subtree: %v", err)
	}
	var got []string
	for _, pkg := range w.Targets {
		got = append(got, strings.TrimPrefix(pkg.Path, w.ModulePath+"/internal/router/"))
	}
	slices.Sort(got)
	if want := []string{"fattree", "maspar", "mesh"}; !slices.Equal(got, want) {
		t.Errorf("tree walk under internal/router found %v, want %v", got, want)
	}
}
