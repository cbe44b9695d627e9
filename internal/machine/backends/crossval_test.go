package backends_test

import (
	"testing"

	"quantpar/internal/calibrate"
	"quantpar/internal/comm"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
)

// The cross-validation tests tie the whole stack together: the router
// simulators, measured through the calibration patterns, must stay within
// a stated band of the analytic model costs evaluated with the calibrated
// reference parameters. These bands are the quantitative contract the
// experiment harness relies on; if a router change breaks them, Table 1
// needs re-deriving (see machine.Reference).

func TestCrossValidateGCelHRelations(t *testing.T) {
	m, err := machine.Build("gcel")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.Reference("gcel")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.NewRNG(41)
	for _, h := range []int{1, 2, 4, 8} {
		s, err := calibrate.Fixed(m).Measure(func(_ comm.Router, rng *sim.RNG) *comm.Step {
			return calibrate.FullHRelation(m.P(), h, 4, rng)
		}, 4, base.Split(uint64(h)))
		if err != nil {
			t.Fatal(err)
		}
		pred := float64(ref.G)*float64(h) + float64(ref.L)
		if s.Mean < 0.6*pred || s.Mean > 1.5*pred {
			t.Fatalf("h=%d: measured %.0f outside band of g*h+L=%.0f", h, s.Mean, pred)
		}
	}
}

func TestCrossValidateGCelBlocks(t *testing.T) {
	m, err := machine.Build("gcel")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.Reference("gcel")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.NewRNG(43)
	for _, bytes := range []int{256, 1024, 8192} {
		s, err := calibrate.Fixed(m).Measure(func(_ comm.Router, rng *sim.RNG) *comm.Step {
			return calibrate.BlockPermutation(m.P(), bytes, rng)
		}, 4, base.Split(uint64(bytes)))
		if err != nil {
			t.Fatal(err)
		}
		pred := float64(ref.Sigma)*float64(bytes) + float64(ref.Ell)
		if s.Mean < 0.6*pred || s.Mean > 1.5*pred {
			t.Fatalf("bytes=%d: measured %.0f outside band of sigma*m+ell=%.0f", bytes, s.Mean, pred)
		}
	}
}

func TestCrossValidateCM5HRelations(t *testing.T) {
	m, err := machine.Build("cm5")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.Reference("cm5")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.NewRNG(47)
	for _, h := range []int{2, 8, 32} {
		s, err := calibrate.Fixed(m).Measure(func(_ comm.Router, rng *sim.RNG) *comm.Step {
			return calibrate.FullHRelation(m.P(), h, 8, rng)
		}, 4, base.Split(uint64(h)))
		if err != nil {
			t.Fatal(err)
		}
		pred := float64(ref.G)*float64(h) + float64(ref.L)
		if s.Mean < 0.5*pred || s.Mean > 1.6*pred {
			t.Fatalf("h=%d: measured %.0f outside band of g*h+L=%.0f", h, s.Mean, pred)
		}
	}
}

func TestCrossValidateMasParPartialPerms(t *testing.T) {
	m, err := machine.Build("maspar")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := machine.Reference("maspar")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.NewRNG(53)
	for _, active := range []int{16, 128, 1024} {
		s, err := calibrate.Fixed(m).Measure(func(_ comm.Router, rng *sim.RNG) *comm.Step {
			return calibrate.PartialPermutation(m.P(), active, 4, rng)
		}, 6, base.Split(uint64(active)))
		if err != nil {
			t.Fatal(err)
		}
		pred := ref.Tunb(active)
		if s.Mean < 0.5*pred || s.Mean > 1.6*pred {
			t.Fatalf("active=%d: measured %.0f outside band of T_unb=%.0f", active, s.Mean, pred)
		}
	}
}
