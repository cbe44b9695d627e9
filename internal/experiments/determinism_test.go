package experiments_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"quantpar/internal/bsplib"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	"quantpar/internal/report"
	"quantpar/internal/runstore"
	"quantpar/internal/trace"
)

// TestExperimentDeterminism is the regression the whole substitution
// strategy rests on (DESIGN.md §2): with a fixed seed, a full experiment —
// calibration patterns, router simulation, least-squares fits — must
// produce byte-identical exported CSV output on every run. Any divergence
// means wall-clock state, map ordering, or unsplit RNG streams leaked into
// the simulation, which is exactly what qpvet exists to prevent.
func TestExperimentDeterminism(t *testing.T) {
	exportDir := func(sub string) (string, []string) {
		e, err := experiments.ByID("fig01")
		if err != nil {
			t.Fatal(err)
		}
		ctx := &experiments.Context{Scale: experiments.Quick, Trials: 3, Seed: 1996}
		o, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("fig01 run: %v", err)
		}
		dir := filepath.Join(t.TempDir(), sub)
		paths, err := report.ExportOutcome(dir, o)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if len(paths) == 0 {
			t.Fatal("fig01 exported no files")
		}
		return dir, paths
	}

	dir1, paths1 := exportDir("a")
	dir2, paths2 := exportDir("b")
	if len(paths1) != len(paths2) {
		t.Fatalf("run 1 exported %d files, run 2 exported %d", len(paths1), len(paths2))
	}
	for i := range paths1 {
		rel1, _ := filepath.Rel(dir1, paths1[i])
		rel2, _ := filepath.Rel(dir2, paths2[i])
		if rel1 != rel2 {
			t.Fatalf("file name diverged: %s vs %s", rel1, rel2)
		}
		b1, err := os.ReadFile(paths1[i])
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(paths2[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s differs between two identically-seeded runs:\nrun1:\n%s\nrun2:\n%s", rel1, b1, b2)
		}
	}
}

// TestParallelSerialEquivalence is the parsweep half of the determinism
// contract: every registered experiment must produce identical Outcomes —
// series, checks, extras — and byte-identical exported CSVs whether its
// sweeps run serially (Workers=1) or fanned out (Workers=8). Workers may
// only trade wall-clock time; any divergence means a task touched shared
// router state or derived its RNG stream from scheduling order.
func TestParallelSerialEquivalence(t *testing.T) {
	exportAll := func(o *experiments.Outcome) map[string][]byte {
		dir := t.TempDir()
		paths, err := report.ExportOutcome(dir, o)
		if err != nil {
			t.Fatalf("export %s: %v", o.ID, err)
		}
		files := make(map[string][]byte, len(paths))
		for _, p := range paths {
			rel, _ := filepath.Rel(dir, p)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[rel] = b
		}
		return files
	}

	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			run := func(workers int) *experiments.Outcome {
				ctx := &experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996, Workers: workers}
				o, err := e.Run(ctx)
				if err != nil {
					t.Fatalf("%s with %d workers: %v", e.ID, workers, err)
				}
				return o
			}
			serial := run(1)
			fanned := run(8)
			if !reflect.DeepEqual(serial, fanned) {
				t.Fatalf("%s outcome differs between -j 1 and -j 8:\nserial: %+v\nfanned: %+v", e.ID, serial, fanned)
			}

			// The stored form must be just as worker-independent as the live
			// form: serialized artifact bytes — the unit the cache and the
			// golden-diff gate compare — must come out identical too. The
			// fingerprint config deliberately omits Workers, so both runs
			// share one config.
			cfg, err := runstore.ExperimentConfig(e, &experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996})
			if err != nil {
				t.Fatal(err)
			}
			encode := func(o *experiments.Outcome) []byte {
				a, err := runstore.New(cfg, o)
				if err != nil {
					t.Fatalf("%s: building artifact: %v", e.ID, err)
				}
				b, err := runstore.Encode(a)
				if err != nil {
					t.Fatalf("%s: encoding artifact: %v", e.ID, err)
				}
				return b
			}
			if sb, fb := encode(serial), encode(fanned); !bytes.Equal(sb, fb) {
				t.Errorf("%s: artifact bytes differ between -j 1 and -j 8:\nserial:\n%s\nfanned:\n%s", e.ID, sb, fb)
			}
			sFiles, fFiles := exportAll(serial), exportAll(fanned)
			if len(sFiles) != len(fFiles) {
				t.Fatalf("%s exported %d files serially, %d fanned", e.ID, len(sFiles), len(fFiles))
			}
			for rel, sb := range sFiles {
				fb, ok := fFiles[rel]
				if !ok {
					t.Fatalf("%s: file %s missing from the -j 8 export", e.ID, rel)
				}
				if !bytes.Equal(sb, fb) {
					t.Errorf("%s: %s differs between -j 1 and -j 8:\nserial:\n%s\nfanned:\n%s", e.ID, rel, sb, fb)
				}
			}
		})
	}
}

// TestTraceDeterminism runs the same traced superstep program twice with
// one seed and asserts the recorded timelines are identical, field for
// field: the engine's pricing, delivery, and accounting must not depend on
// goroutine scheduling.
func TestTraceDeterminism(t *testing.T) {
	runOnce := func() []trace.Superstep {
		m, err := machine.Build("cm5")
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		prog := func(ctx *bsplib.Context) {
			p := ctx.P()
			buf := make([]byte, 64)
			for round := 0; round < 4; round++ {
				ctx.ChargeOps(128 + 16*ctx.ID())
				dst := (ctx.ID() + round + 1) % p
				ctx.Send(dst, round, buf)
				ctx.Sync()
			}
		}
		if _, err := bsplib.Run(m, prog, bsplib.Options{Seed: 42, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Steps()
	}

	first := runOnce()
	second := runOnce()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("trace differs between identically-seeded runs:\nrun1: %+v\nrun2: %+v", first, second)
	}
	if len(first) == 0 {
		t.Error("trace is empty")
	}
}
