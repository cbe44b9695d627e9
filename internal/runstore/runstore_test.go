package runstore_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/core"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	"quantpar/internal/report"
	"quantpar/internal/runstore"
)

// sampleOutcome is a small, fully-populated outcome for schema tests.
func sampleOutcome() *experiments.Outcome {
	return &experiments.Outcome{
		ID:    "fig99",
		Title: "synthetic figure",
		Series: []core.Series{{
			Name: "maspar sort", XLabel: "n",
			Xs:        []float64{1, 2, 4},
			Measured:  []float64{10.5, 20.25, 39.0625},
			Predicted: []float64{10, 20, 40},
		}, {
			Name: "cm5 sort", XLabel: "n",
			Xs:        []float64{1, 2, 4},
			Measured:  []float64{1e-7, 123456789.125, 3},
			Predicted: []float64{0, 123000000, 3},
		}},
		Extra:  []string{"note one", "note two"},
		Checks: []experiments.Check{{Name: "winner", Pass: true, Detail: "ok"}, {Name: "ratio", Pass: false, Detail: "off by 2x"}},
		Stats:  comm.Stats{Msgs: 7, Bytes: 128, Stalls: 3, MaxLinkLoad: 2},
	}
}

func sampleConfig(t *testing.T, id string) runstore.Config {
	t.Helper()
	machines, err := runstore.ReferenceMachines()
	if err != nil {
		t.Fatal(err)
	}
	return runstore.Config{
		Kind: "experiment", ID: id, Title: "synthetic figure", Scale: "quick",
		Trials: 2, Seed: 1996, Machines: machines, Module: runstore.ModuleVersion,
	}
}

func sampleArtifact(t *testing.T) *runstore.Artifact {
	t.Helper()
	a, err := runstore.New(sampleConfig(t, "fig99"), sampleOutcome())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEncodeDecodeEncodeRoundTrip is the schema's byte-stability contract:
// encode -> decode -> encode must reproduce the exact bytes, so artifacts
// survive storage and replay without drifting.
func TestEncodeDecodeEncodeRoundTrip(t *testing.T) {
	a := sampleArtifact(t)
	first, err := runstore.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := runstore.Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runstore.Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip changed bytes:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if runstore.ContentHash(first) != runstore.ContentHash(second) {
		t.Fatal("round trip changed content hash")
	}
}

// TestEncodeIsCanonical pins the encoding details byte-determinism depends
// on: sorted field names and fixed float formatting.
func TestEncodeIsCanonical(t *testing.T) {
	type zebra struct {
		Zulu  float64
		Alpha float64
		Mike  int
	}
	b, err := runstore.Encode(zebra{Zulu: 2, Alpha: 0.5, Mike: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if ai, zi := strings.Index(s, `"Alpha"`), strings.Index(s, `"Zulu"`); ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("fields not emitted in sorted order:\n%s", s)
	}
	// Integral floats carry a ".0" marker; ints do not.
	if !strings.Contains(s, "2.0") {
		t.Fatalf("integral float not marked .0:\n%s", s)
	}
	if !strings.Contains(s, `"Mike": 3`) || strings.Contains(s, "3.0") {
		t.Fatalf("int formatting wrong:\n%s", s)
	}

	// Identical values encode identically, repeatedly.
	again, err := runstore.Encode(zebra{Zulu: 2, Alpha: 0.5, Mike: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again) {
		t.Fatal("two encodings of one value differ")
	}
}

// TestEncodeRejectsNonCanonicalShapes: the encoder must refuse everything
// whose encoding could depend on runtime state.
func TestEncodeRejectsNonCanonicalShapes(t *testing.T) {
	cases := map[string]any{
		"map":            struct{ M map[string]int }{M: map[string]int{"a": 1}},
		"nil map":        struct{ M map[string]int }{},
		"any":            struct{ V any }{V: 3},
		"nested pointer": struct{ P *int }{P: new(int)},
		"nil pointer":    struct{ P *string }{},
		"chan":           struct{ C chan int }{},
		"empty []map":    struct{ R []map[int]float64 }{},
		"func":           struct{ F func() }{F: func() {}},
		"NaN":            struct{ X float64 }{X: math.NaN()},
		"Inf":            struct{ X float64 }{X: math.Inf(1)},
		"unexported":     struct{ x int }{x: 1},
	}
	for name, v := range cases {
		if _, err := runstore.Encode(v); err == nil {
			t.Errorf("%s value encoded without error", name)
		}
	}
}

// TestFingerprintIdentity: equal configs share a fingerprint, any
// result-relevant change produces a new one.
func TestFingerprintIdentity(t *testing.T) {
	cfg := sampleConfig(t, "fig99")
	fp1, err := runstore.Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := runstore.Fingerprint(sampleConfig(t, "fig99"))
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("equal configs fingerprint differently")
	}
	for name, mutate := range map[string]func(*runstore.Config){
		"seed":    func(c *runstore.Config) { c.Seed++ },
		"trials":  func(c *runstore.Config) { c.Trials++ },
		"scale":   func(c *runstore.Config) { c.Scale = "full" },
		"machine": func(c *runstore.Config) { c.Machines[0].G *= 1.01 },
		"module":  func(c *runstore.Config) { c.Module = "quantpar/sim-vNext" },
	} {
		mut := sampleConfig(t, "fig99")
		mutate(&mut)
		fp, err := runstore.Fingerprint(mut)
		if err != nil {
			t.Fatal(err)
		}
		if fp == fp1 {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestStoreRoundTrip covers Put/Lookup/ByID/LoadAll and manifest reload.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := sampleArtifact(t)
	path, err := store.Put(a, "test", 12.5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, dir) {
		t.Fatalf("artifact written outside the store: %s", path)
	}

	// A fresh Open must see the artifact through its manifest.
	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := store2.Lookup(a.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("Lookup after reopen: ok=%v err=%v", ok, err)
	}
	b1, _ := runstore.Encode(a)
	b2, _ := runstore.Encode(got)
	if !bytes.Equal(b1, b2) {
		t.Fatal("stored artifact decodes to different bytes")
	}
	if _, ok, _ := store2.Lookup("no-such-fingerprint"); ok {
		t.Fatal("Lookup hit on unknown fingerprint")
	}

	byID, ok, err := store2.ByID("fig99")
	if err != nil || !ok {
		t.Fatalf("ByID: ok=%v err=%v", ok, err)
	}
	if byID.Fingerprint != a.Fingerprint {
		t.Fatal("ByID returned a different artifact")
	}
	all, err := store2.LoadAll()
	if err != nil || len(all) != 1 {
		t.Fatalf("LoadAll: %d artifacts, err=%v", len(all), err)
	}
	entries := store2.Entries()
	if len(entries) != 1 || entries[0].WallMS != 12.5 || !strings.Contains(entries[0].File, "fig99") {
		t.Fatalf("manifest entry wrong: %+v", entries)
	}
	if entries[0].ContentHash != runstore.ContentHash(b1) {
		t.Fatal("manifest content hash does not match artifact bytes")
	}

	// Re-putting the same fingerprint replaces, not duplicates.
	if _, err := store2.Put(a, "test", 1); err != nil {
		t.Fatal(err)
	}
	if n := len(store2.Entries()); n != 1 {
		t.Fatalf("re-put duplicated the entry: %d rows", n)
	}
}

// TestDiffVerdicts exercises the regression calculus of the -diff gate.
func TestDiffVerdicts(t *testing.T) {
	base := sampleArtifact(t)

	fresh := func() *runstore.Artifact {
		return sampleArtifact(t)
	}

	t.Run("identical runs do not regress", func(t *testing.T) {
		d := runstore.Diff(base, fresh())
		if d.Regression(0) {
			t.Fatalf("identical artifacts regressed: %+v", d)
		}
		for _, s := range d.Drifts {
			if s.MaxRelDrift != 0 || s.Incomparable {
				t.Fatalf("identical series drifted: %+v", s)
			}
		}
	})

	t.Run("drift beyond tolerance regresses", func(t *testing.T) {
		cur := fresh()
		cur.Result.Series[0].Measured[1] *= 1.10
		d := runstore.Diff(base, cur)
		if !d.Regression(0.05) {
			t.Fatal("10% drift passed a 5% gate")
		}
		if d.Regression(0.25) {
			t.Fatal("10% drift failed a 25% gate")
		}
	})

	t.Run("check flip pass to fail regresses", func(t *testing.T) {
		cur := fresh()
		cur.Result.Checks[0].Pass = false
		d := runstore.Diff(base, cur)
		if !d.Regression(1) {
			t.Fatal("pass->fail flip did not regress")
		}
	})

	t.Run("check flip fail to pass improves", func(t *testing.T) {
		cur := fresh()
		cur.Result.Checks[1].Pass = true
		d := runstore.Diff(base, cur)
		if len(d.Flips) != 1 || d.Flips[0].Regressed() {
			t.Fatalf("fail->pass flip misclassified: %+v", d.Flips)
		}
		if d.Regression(1) {
			t.Fatal("improvement counted as regression")
		}
	})

	t.Run("vanished series is incomparable", func(t *testing.T) {
		cur := fresh()
		cur.Result.Series = cur.Result.Series[:1]
		d := runstore.Diff(base, cur)
		if !d.Regression(1) {
			t.Fatal("vanished series did not regress")
		}
	})

	t.Run("changed sweep is incomparable", func(t *testing.T) {
		cur := fresh()
		cur.Result.Series[0].Xs[2] = 8
		d := runstore.Diff(base, cur)
		if !d.Regression(1) {
			t.Fatal("changed sweep did not regress")
		}
	})

	t.Run("missing baseline never regresses", func(t *testing.T) {
		d := runstore.ArtifactDiff{ID: "fig99", MissingBaseline: true}
		if d.Regression(0) {
			t.Fatal("missing baseline regressed")
		}
	})

	t.Run("report renders and aggregates", func(t *testing.T) {
		cur := fresh()
		cur.Result.Checks[0].Pass = false
		rep := runstore.Report{Tol: 0.05, Diffs: []runstore.ArtifactDiff{runstore.Diff(base, cur)}}
		if !rep.Regression() {
			t.Fatal("report missed the regression")
		}
		var buf bytes.Buffer
		rep.Write(&buf)
		if !strings.Contains(buf.String(), "REGRESS") {
			t.Fatalf("report text lacks a regression marker:\n%s", buf.String())
		}
	})
}

// TestDiffStatsOnlyChangeIsNotByteStable: an artifact that differs from
// its baseline only in its router counters drifts no series and flips no
// check, but its bytes differ. The report must count only its identical
// twin byte-stable, name the part that differs, and still pass the gate.
func TestDiffStatsOnlyChangeIsNotByteStable(t *testing.T) {
	base := sampleArtifact(t)
	cur := sampleArtifact(t)
	cur.Result.Stats.HopSum++
	rep := runstore.Report{Tol: runstore.DefaultTolerance, Diffs: []runstore.ArtifactDiff{
		runstore.Diff(base, cur), runstore.Diff(base, sampleArtifact(t)),
	}}
	var buf bytes.Buffer
	rep.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "diff: 1 of 2 artifacts byte-stable") || !strings.Contains(out, "bytes differ in Result.Stats\n") {
		t.Fatalf("report does not single out the Stats change:\n%s", out)
	}
	if rep.Regression() {
		t.Fatal("a byte difference within the tolerance failed the gate")
	}
}

// TestReportFromArtifactMatchesLive: rendering a stored artifact must be
// byte-identical to rendering the live outcome it captured — the acceptance
// bar for replacing live structs with artifacts in the pipeline.
func TestReportFromArtifactMatchesLive(t *testing.T) {
	e, err := experiments.ByID("fig01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996}
	o, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := runstore.ExperimentConfig(e, ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runstore.New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}

	var live, replay bytes.Buffer
	report.WriteOutcome(&live, o, true)
	report.FromArtifact(&replay, a, true)
	if !bytes.Equal(live.Bytes(), replay.Bytes()) {
		t.Fatalf("artifact-driven rendering differs from live rendering:\nlive:\n%s\nreplay:\n%s", live.Bytes(), replay.Bytes())
	}

	// And the same through a store round trip.
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(a, "test", 0); err != nil {
		t.Fatal(err)
	}
	stored, ok, err := store.Lookup(a.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("Lookup: ok=%v err=%v", ok, err)
	}
	var replay2 bytes.Buffer
	report.FromArtifact(&replay2, stored, true)
	if !bytes.Equal(live.Bytes(), replay2.Bytes()) {
		t.Fatal("stored artifact renders differently from live outcome")
	}
}

// TestCacheHitPerformsZeroSimulations is the -cache acceptance test: once a
// fingerprint has a stored artifact, replaying it must not construct a
// single machine — and every simulation starts by constructing one.
func TestCacheHitPerformsZeroSimulations(t *testing.T) {
	e, err := experiments.ByID("fig01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996}
	cfg, err := runstore.ExperimentConfig(e, ctx)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := runstore.Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store.Lookup(fp); ok {
		t.Fatal("empty store claims a hit")
	}

	// Miss path: run and store.
	o, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runstore.New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(a, "test", 1); err != nil {
		t.Fatal(err)
	}

	// Hit path, from a cold reopen: zero machine constructions allowed.
	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := machine.Builds()
	cached, ok, err := store2.Lookup(fp)
	if err != nil || !ok {
		t.Fatalf("cache miss after Put: ok=%v err=%v", ok, err)
	}
	var buf bytes.Buffer
	report.FromArtifact(&buf, cached, true)
	if after := machine.Builds(); after != before {
		t.Fatalf("cache hit constructed %d machines; simulations must not run", after-before)
	}

	// The replayed outcome matches the live one byte-for-byte.
	var live bytes.Buffer
	report.WriteOutcome(&live, o, true)
	if !bytes.Equal(live.Bytes(), buf.Bytes()) {
		t.Fatal("cached replay differs from live run")
	}
}
