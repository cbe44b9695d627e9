package quantpar_test

import (
	"testing"

	"quantpar"
)

// The facade test doubles as the package's integration smoke test: build
// every machine, run each algorithm once through the public API, verify
// results, and confirm the experiment registry is complete.
func TestFacadeEndToEnd(t *testing.T) {
	cm, err := quantpar.NewMachine("cm5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := quantpar.RunMatMul(cm, quantpar.MatMulConfig{
		N: 32, Q: 4, Variant: quantpar.MatMulBSPStaggered, Seed: 1, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > 1e-9 || res.Mflops <= 0 {
		t.Fatalf("matmul result %+v", res)
	}

	gc, err := quantpar.NewMachine("gcel")
	if err != nil {
		t.Fatal(err)
	}
	bres, err := quantpar.RunBitonic(gc, quantpar.BitonicConfig{
		KeysPerProc: 16, Variant: quantpar.BitonicBlock, Seed: 1, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bres.Sorted {
		t.Fatal("bitonic unsorted")
	}
	sres, err := quantpar.RunSampleSort(gc, quantpar.SampleSortConfig{
		KeysPerProc: 64, Oversample: 8, Variant: quantpar.SampleSortStaggered, Seed: 1, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Sorted {
		t.Fatal("sample sort unsorted")
	}
	ares, err := quantpar.RunAPSP(gc, quantpar.APSPConfig{N: 16, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if ares.MaxErr > 1e-2 {
		t.Fatalf("apsp err %g", ares.MaxErr)
	}
}

func TestFacadeCustomProgram(t *testing.T) {
	cm, err := quantpar.NewMachine("cm5")
	if err != nil {
		t.Fatal(err)
	}
	visited := make([]bool, cm.P())
	res, err := quantpar.Run(cm, func(ctx *quantpar.Context) {
		visited[ctx.ID()] = true
		ctx.Charge(10)
		ctx.Sync()
	}, quantpar.RunOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range visited {
		if !v {
			t.Fatalf("processor %d never ran", id)
		}
	}
	if res.ComputeTime != 10 {
		t.Fatalf("compute time %g, want 10", res.ComputeTime)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if got := len(quantpar.Experiments()); got != 25 {
		t.Fatalf("%d experiments, want 25 (Table 1 + Figs 1..20 + concl1 + Figs F1..F3)", got)
	}
	if _, err := quantpar.ExperimentByID("fig04"); err != nil {
		t.Fatal(err)
	}
	if _, err := quantpar.ExperimentByID("nonsense"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeReferenceAndCalibrate(t *testing.T) {
	ref, err := quantpar.Reference("cm5")
	if err != nil {
		t.Fatal(err)
	}
	if ref.G <= 0 {
		t.Fatalf("reference %+v", ref)
	}
	cm, err := quantpar.NewMachine("cm5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := quantpar.Calibrate(cm, quantpar.CalibrationSpec{
		Style: 1, Hs: []int{1, 2, 4}, Sizes: []int{64, 256}, WordBytes: 8, Trials: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The quick calibration must land in the neighbourhood of the
	// reference parameters.
	if p.G < ref.G/2 || p.G > ref.G*2 {
		t.Fatalf("calibrated g %.1f vs reference %.1f", p.G, ref.G)
	}
}

// TestCalibrateRejectsTrialCounts: a calibration needs at least one trial
// per point, so zero and negative trial counts are errors, not panics.
func TestCalibrateRejectsTrialCounts(t *testing.T) {
	m, err := quantpar.NewMachine("cm5")
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{0, -1} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Trials %d panicked: %v", trials, r)
				}
			}()
			_, err := quantpar.Calibrate(m, quantpar.CalibrationSpec{
				Hs: []int{1, 2, 4}, Sizes: []int{16, 64}, WordBytes: 8, Trials: trials,
			}, 1)
			if err == nil {
				t.Errorf("Trials %d accepted", trials)
			}
		}()
	}
}
