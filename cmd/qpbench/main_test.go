package main

import (
	"strings"
	"testing"
)

func TestParseBaselineCanonical(t *testing.T) {
	rep := Report{Format: FormatV1, Benchmarks: []Record{
		{Name: "BenchmarkAlpha", Iterations: 1, Metrics: map[string]float64{"allocs/op": 100, "ns/op": 5e6}},
	}}
	base, err := ParseBaseline(rep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got := base["BenchmarkAlpha"].Metrics["allocs/op"]; got != 100 {
		t.Errorf("allocs/op = %v, want 100", got)
	}
}

func TestParseBaselineRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "not json at all", `{"format":"qpbench/v1","benchmarks":[]}` + "garbage",
		`{"Time":"2026-08-06T09:30:27.29Z","Action":"start","Package":"quantpar"}`} {
		if _, err := ParseBaseline([]byte(bad)); err == nil {
			t.Errorf("ParseBaseline(%q) = nil error, want failure", bad)
		}
	}
}

func diffCase(t *testing.T, oldAllocs, newAllocs, oldNs, newNs float64) ([]string, bool) {
	t.Helper()
	base := map[string]Record{
		"BenchmarkX": {Name: "BenchmarkX", Metrics: map[string]float64{"allocs/op": oldAllocs, "ns/op": oldNs}},
	}
	cur := []Record{
		{Name: "BenchmarkX", Metrics: map[string]float64{"allocs/op": newAllocs, "ns/op": newNs}},
	}
	return Diff(cur, base, Tolerances{Allocs: 0.10, Ns: 0.25, Bytes: 0.10})
}

func TestDiffBlocksOnAllocRegression(t *testing.T) {
	lines, regressed := diffCase(t, 1000, 1200, 1e6, 1e6)
	if !regressed {
		t.Fatalf("20%% allocs/op increase not blocking; lines: %v", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "REGRESSION") {
		t.Errorf("no REGRESSION line in %v", lines)
	}
}

func TestDiffAllocsWithinToleranceOK(t *testing.T) {
	if lines, regressed := diffCase(t, 1000, 1050, 1e6, 1e6); regressed {
		t.Fatalf("5%% allocs/op increase blocked; lines: %v", lines)
	}
}

func TestDiffNsRegressionIsAdvisoryOnly(t *testing.T) {
	lines, regressed := diffCase(t, 1000, 1000, 1e6, 9e6)
	if regressed {
		t.Fatalf("ns/op regression blocked (must be advisory); lines: %v", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "advisory") {
		t.Errorf("no advisory line in %v", lines)
	}
}

func TestDiffImprovementFactorRendering(t *testing.T) {
	lines, regressed := diffCase(t, 263410, 48627, 1e6, 1e6)
	if regressed {
		t.Fatal("improvement reported as regression")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "5.4x fewer") {
		t.Errorf("improvement factor missing in %v", lines)
	}
}

func TestDiffMissingBenchmarkIsNotBlocking(t *testing.T) {
	cur := []Record{{Name: "BenchmarkNew", Metrics: map[string]float64{"allocs/op": 10}}}
	lines, regressed := Diff(cur, map[string]Record{}, Tolerances{Allocs: 0.10})
	if regressed {
		t.Fatalf("missing baseline entry blocked; lines: %v", lines)
	}
}

func TestDiffZeroBaselineBlocksAnyIncrease(t *testing.T) {
	if _, regressed := diffCase(t, 0, 1, 1e6, 1e6); !regressed {
		t.Fatal("increase from a zero-alloc baseline not blocking")
	}
}

func TestQuickSubsetKnown(t *testing.T) {
	for _, id := range quickIDs {
		if _, ok := nameOf(id); !ok {
			t.Errorf("quick id %q has no benchmark name", id)
		}
	}
}
