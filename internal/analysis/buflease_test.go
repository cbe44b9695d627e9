package analysis

import (
	"strings"
	"testing"
)

// TestBufLeaseRulesFire seeds one bug per buflease rule (the fixture holds
// them all) and proves every rule actually fires: a lifetime analyzer that
// silently stops matching its APIs would still pass a golden test whose
// wants all drifted, but not this.
func TestBufLeaseRulesFire(t *testing.T) {
	w, _ := loadFixture(t, "buflease")
	diags := w.Run([]*Analyzer{BufLease})
	rules := []string{
		"lease escape",
		"goroutine capture",
		"cross-Sync retention",
	}
	for _, rule := range rules {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, rule) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("rule %q did not fire on the seeded-bug fixture", rule)
		}
	}
}

// TestLeaseSummaries checks the one-level call summaries that let buflease
// facts cross a call: Sync wrappers, field-stashers, and lease-returning
// constructors in the fixture must summarize as such.
func TestLeaseSummaries(t *testing.T) {
	w, pkg := loadFixture(t, "buflease")
	sums := w.LeaseSummaries()
	byName := make(map[string]*leaseSummary)
	for fn, sum := range sums {
		if fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path {
			byName[fn.Name()] = sum
		}
	}
	if sum := byName["barrier"]; sum == nil || !sum.syncs {
		t.Errorf("barrier: want syncs, got %+v", byName["barrier"])
	}
	if sum := byName["stash"]; sum == nil || !sum.storesParams[1] {
		t.Errorf("stash: want storesParams[1], got %+v", byName["stash"])
	}
	if sum := byName["acquire"]; sum == nil || !sum.returnsLease {
		t.Errorf("acquire: want returnsLease, got %+v", byName["acquire"])
	}
	// sink only reads its argument: it must not summarize at all.
	for fn := range sums {
		if fn.Name() == "sink" && fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path {
			t.Errorf("sink acquired a summary: %+v", sums[fn])
		}
	}
}
