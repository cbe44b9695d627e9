package analysis

import (
	"os"
	"strings"
	"testing"
)

// stalePositions maps the fixture's expected-stale directives (those whose
// justification begins with "STALE:") to their line numbers.
func stalePositions(t *testing.T, w *World, pkg *Package) map[int]bool {
	t.Helper()
	want := make(map[int]bool)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//qpvet:ignore") && strings.Contains(c.Text, "STALE:") {
					want[w.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
	}
	return want
}

// TestSuppAudit runs the full suite over the suppaudit fixture: the live
// directive must suppress its diagnostic and stay out of the audit; the two
// STALE-marked directives (one named, one wildcard) must be reported.
func TestSuppAudit(t *testing.T) {
	w, pkg := loadFixture(t, "suppaudit")
	diags, stale := w.RunWithAudit()
	for _, d := range diags {
		t.Errorf("unexpected diagnostic (live suppression failed?): %s", d)
	}
	want := stalePositions(t, w, pkg)
	if len(want) != 2 {
		t.Fatalf("fixture declares %d STALE directives, want 2", len(want))
	}
	got := make(map[int]bool)
	for _, s := range stale {
		got[s.Pos.Line] = true
	}
	for line := range want {
		if !got[line] {
			t.Errorf("stale directive at line %d not reported", line)
		}
	}
	for line := range got {
		if !want[line] {
			t.Errorf("directive at line %d reported stale, but fixture expects it live", line)
		}
	}
}

// TestLegacySuppressionsStillLive pins the two oldest in-tree directives:
// the simtime tie-break comparison in sim/events.go and the cross-step RNG
// stream in calibrate/measure.go. They must still exist, and the module-wide
// audit in TestRepoIsClean proves they still suppress something; this test
// fails loudly if someone deletes the code but leaves (or moves) the
// directive.
func TestLegacySuppressionsStillLive(t *testing.T) {
	legacy := []struct{ file, check string }{
		{"../sim/events.go", "simtime"},
		{"../calibrate/measure.go", "rngstream"},
	}
	for _, l := range legacy {
		src, err := os.ReadFile(l.file)
		if err != nil {
			t.Fatalf("reading %s: %v", l.file, err)
		}
		found := false
		for _, line := range strings.Split(string(src), "\n") {
			if idx := strings.Index(line, "//qpvet:ignore"); idx >= 0 && strings.Contains(line[idx:], l.check) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: expected a //qpvet:ignore %s directive", l.file, l.check)
		}
	}
	// And the audit agrees they are live: a full-module run reports no
	// stale directive in either file.
	w, err := Load("../..", []string{"./internal/sim", "./internal/calibrate"})
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	_, stale := w.RunWithAudit()
	for _, s := range stale {
		t.Errorf("legacy suppression went stale: %s", s)
	}
}
