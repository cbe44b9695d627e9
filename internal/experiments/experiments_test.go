package experiments

import (
	"sort"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{
		"concl1",
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"figf1", "figf2", "figf3", "table1",
	}
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d is %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig14")
	if err != nil || e.ID != "fig14" {
		t.Fatalf("ByID(fig14): %v %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOutcomeChecks(t *testing.T) {
	o := &Outcome{ID: "x"}
	o.check("a", true, "fine %d", 1)
	if !o.Passed() {
		t.Fatal("passing outcome flagged failed")
	}
	o.check("b", false, "bad")
	if o.Passed() {
		t.Fatal("failing outcome flagged passed")
	}
	o.extra("note %s", "n")
	if len(o.Extra) != 1 || !strings.Contains(o.Extra[0], "note n") {
		t.Fatalf("extra %v", o.Extra)
	}
}

func TestContextSweepAndTrials(t *testing.T) {
	c := &Context{Scale: Quick}
	if got := c.sweep([]int{1}, []int{1, 2}); len(got) != 1 {
		t.Fatal("quick sweep wrong")
	}
	c.Scale = Full
	if got := c.sweep([]int{1}, []int{1, 2}); len(got) != 2 {
		t.Fatal("full sweep wrong")
	}
	if got := c.trials(3, 9); got != 9 {
		t.Fatalf("full trials %d", got)
	}
	c.Trials = 5
	if got := c.trials(3, 9); got != 5 {
		t.Fatalf("override trials %d", got)
	}
}

// Cheap experiments run end to end in tests; the expensive ones are
// exercised by the benchmark harness (bench_test.go at the repo root).
func TestCheapExperimentsPass(t *testing.T) {
	// Trials must be enough to average the deliberately noisy MasPar
	// 1-h relations (Fig 1's error bars); 3 is too few for a stable fit.
	ctx := &Context{Scale: Quick, Trials: 8, Seed: 1996}
	for _, id := range []string{"table1", "fig01", "fig02", "fig14"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		o, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !o.Passed() {
			for _, c := range o.Checks {
				if !c.Pass {
					t.Errorf("%s: check %q failed: %s", id, c.Name, c.Detail)
				}
			}
		}
		for i := range o.Series {
			if err := o.Series[i].Check(); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
}

func TestCostsOfDerivation(t *testing.T) {
	gc, err := newGCel()
	if err != nil {
		t.Fatal(err)
	}
	c := costsOf(gc)
	if c.Alpha != gc.Compute.Alpha() {
		t.Fatal("alpha not taken from the machine")
	}
	if c.MergeC <= 0 || c.OpC <= 0 || c.SortGamma <= 0 {
		t.Fatalf("degenerate derived costs %+v", c)
	}
	if c.WordBytes != 4 {
		t.Fatalf("word bytes %d", c.WordBytes)
	}
}

func TestModelsFor(t *testing.T) {
	cm, err := newCM5()
	if err != nil {
		t.Fatal(err)
	}
	md, err := modelsFor(cm, "cm5", 64)
	if err != nil {
		t.Fatal(err)
	}
	if md.bsp.P != 64 || md.bsp.G <= 0 || md.bpram.Sigma <= 0 {
		t.Fatalf("bad models %+v", md)
	}
	if md.ebsp.Tunb == nil {
		t.Fatal("E-BSP without Tunb")
	}
	if _, err := modelsFor(cm, "vax", 64); err == nil {
		t.Fatal("unknown reference accepted")
	}
}

func TestResolveForgivingIdentifiers(t *testing.T) {
	cases := map[string]string{
		"fig04":   "fig04",
		"Fig4":    "fig04",
		"FIG04":   "fig04",
		" fig4 ":  "fig04",
		"fig004":  "fig04",
		"fig14":   "fig14",
		"FIG14":   "fig14",
		"table1":  "table1",
		"Table1":  "table1",
		"table01": "table1",
		"TABLE1":  "table1",
		"concl1":  "concl1",
	}
	for in, want := range cases {
		e, err := Resolve(in)
		if err != nil {
			t.Errorf("Resolve(%q): %v", in, err)
			continue
		}
		if e.ID != want {
			t.Errorf("Resolve(%q) = %q, want %q", in, e.ID, want)
		}
	}
}

func TestResolveUnknownListsValidIDs(t *testing.T) {
	for _, bad := range []string{"fig99", "nonsense", "fig", ""} {
		_, err := Resolve(bad)
		if err == nil {
			t.Errorf("Resolve(%q) succeeded", bad)
			continue
		}
		for _, id := range []string{"fig01", "fig20", "table1", "concl1"} {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("Resolve(%q) error does not list %s: %v", bad, id, err)
			}
		}
	}
	if _, err := ByID("fig99"); err == nil || !strings.Contains(err.Error(), "fig01") {
		t.Errorf("ByID error does not list valid ids: %v", err)
	}
}

func TestIDsSortedAndComplete(t *testing.T) {
	ids := IDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("IDs not sorted: %v", ids)
	}
	if len(ids) != len(All()) {
		t.Fatalf("IDs has %d entries, registry has %d", len(ids), len(All()))
	}
}
