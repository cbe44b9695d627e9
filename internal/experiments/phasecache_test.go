package experiments_test

import (
	"bytes"
	"testing"

	"quantpar/internal/experiments"
	"quantpar/internal/phase"
	"quantpar/internal/runstore"
)

// TestPhaseCacheEquivalence is the memoization contract (DESIGN.md §12):
// the phase cache replays exactly one simulation's outputs keyed by exactly
// its inputs, so turning it off may only change wall-clock time. Every
// registered experiment must serialize to byte-identical artifacts with
// the cache enabled and disabled, serially and fanned out — any divergence
// means the memo key missed an input (router state, RNG stream, pattern
// detail) that the simulation actually consumes.
func TestPhaseCacheEquivalence(t *testing.T) {
	encode := func(t *testing.T, e experiments.Experiment, workers int) []byte {
		ctx := &experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996, Workers: workers}
		o, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s with %d workers: %v", e.ID, workers, err)
		}
		cfg, err := runstore.ExperimentConfig(e, &experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996})
		if err != nil {
			t.Fatal(err)
		}
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

	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				phase.SetEnabled(true)
				on := encode(t, e, workers)
				phase.SetEnabled(false)
				off := encode(t, e, workers)
				phase.SetEnabled(true)
				if !bytes.Equal(on, off) {
					t.Errorf("%s: artifact bytes differ between cache on and off at -j %d:\non:\n%s\noff:\n%s",
						e.ID, workers, on, off)
				}
			}
		})
	}
}

// TestPhaseCacheEventReduction pins the performance claim the cache exists
// for. A cold run necessarily simulates every distinct phase once; the
// payoff is the steady state, where re-running an experiment (what the
// benchmarks, golden regeneration, and parameter sweeps all do) replays
// stored outcomes instead of re-simulating them. On the tracked workloads
// (Table 1 calibration, Fig 4 matmul) a warm re-run must process at least
// 5x fewer events than a cache-off run.
func TestPhaseCacheEventReduction(t *testing.T) {
	run := func(t *testing.T, e experiments.Experiment) int64 {
		ev0 := phase.SimEvents()
		if _, err := e.Run(&experiments.Context{Scale: experiments.Quick, Trials: 2, Seed: 1996}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		return phase.SimEvents() - ev0
	}

	for _, id := range []string{"table1", "fig04"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		phase.ResetStore()
		phase.SetEnabled(true)
		run(t, e) // cold: fills the store
		warm := run(t, e)
		phase.SetEnabled(false)
		off := run(t, e)
		phase.SetEnabled(true)
		if off <= 0 {
			t.Fatalf("%s: cache-off run simulated no events", id)
		}
		if off < 5*warm {
			t.Errorf("%s: warm cache cut simulated events only %.1fx (%d -> %d), want >= 5x",
				id, float64(off)/float64(warm), off, warm)
		}
	}
}
