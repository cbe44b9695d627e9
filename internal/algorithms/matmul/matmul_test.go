package matmul

import (
	"errors"
	"math"
	"testing"

	"quantpar/internal/faults"
	"quantpar/internal/linalg"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends"
	"quantpar/internal/sim"
)

func machines(t *testing.T) map[string]*machine.Machine {
	t.Helper()
	mp, err := machine.Build("maspar")
	if err != nil {
		t.Fatal(err)
	}
	gc, err := machine.Build("gcel")
	if err != nil {
		t.Fatal(err)
	}
	cm, err := machine.Build("cm5")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*machine.Machine{"maspar": mp, "gcel": gc, "cm5": cm}
}

func qFor(name string) int {
	if name == "maspar" {
		return 8
	}
	return 4
}

// tolFor reflects the wire word: 4-byte machines round to float32.
func tolFor(m *machine.Machine) float64 {
	if m.WordBytes == 4 {
		return 1e-3
	}
	return 1e-9
}

func TestAllVariantsAllMachinesCorrect(t *testing.T) {
	for name, m := range machines(t) {
		for _, v := range []Variant{BSPUnstaggered, BSPStaggered, BPRAM} {
			q := qFor(name)
			n := q * q * 2
			res, err := Run(m, Config{N: n, Q: q, Variant: v, Seed: 17, Verify: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, v, err)
			}
			if res.MaxErr > tolFor(m) {
				t.Fatalf("%s/%v: max err %g", name, v, res.MaxErr)
			}
			if res.Run.Time <= 0 || res.Mflops <= 0 {
				t.Fatalf("%s/%v: degenerate result %+v", name, v, res)
			}
		}
	}
}

func TestBPRAMPassesPortDiscipline(t *testing.T) {
	// Run on the CM-5 with the one-send/one-receive check active (it is
	// enabled inside Run for the BPRAM variant); an algorithm bug in the
	// round schedule would surface as an engine error here.
	m := machines(t)["cm5"]
	if _, err := Run(m, Config{N: 32, Q: 4, Variant: BPRAM, Seed: 3, Verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestUnstaggeredSlowerOnCM5(t *testing.T) {
	m := machines(t)["cm5"]
	un, err := Run(m, Config{N: 128, Q: 4, Variant: BSPUnstaggered, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(m, Config{N: 128, Q: 4, Variant: BSPStaggered, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if un.Run.Time <= st.Run.Time {
		t.Fatalf("unstaggered %.0f not slower than staggered %.0f", un.Run.Time, st.Run.Time)
	}
}

func TestBlocksBeatWordsEverywhere(t *testing.T) {
	for name, m := range machines(t) {
		q := qFor(name)
		n := q * q * 2
		w, err := Run(m, Config{N: n, Q: q, Variant: BSPStaggered, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(m, Config{N: n, Q: q, Variant: BPRAM, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if b.Run.Time >= w.Run.Time {
			t.Fatalf("%s: blocks (%.0f) not faster than words (%.0f)", name, b.Run.Time, w.Run.Time)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := machines(t)["cm5"]
	if _, err := Run(m, Config{N: 32, Q: 5}); err == nil {
		t.Fatal("q^3 > P accepted")
	}
	if _, err := Run(m, Config{N: 33, Q: 4}); err == nil {
		t.Fatal("indivisible N accepted")
	}
	if _, err := Run(m, Config{N: 32, Q: 0}); err == nil {
		t.Fatal("q = 0 accepted")
	}
}

func TestDeterministicTiming(t *testing.T) {
	m := machines(t)["cm5"]
	a, err := Run(m, Config{N: 64, Q: 4, Variant: BSPStaggered, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, Config{N: 64, Q: 4, Variant: BSPStaggered, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Run.Time != b.Run.Time {
		t.Fatalf("same seed, different times: %g vs %g", a.Run.Time, b.Run.Time)
	}
	c, err := Run(m, Config{N: 64, Q: 4, Variant: BSPStaggered, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.Run.Time == c.Run.Time {
		t.Log("different seeds produced identical times (plausible but noteworthy)")
	}
}

// TestInPlaceProductMatchesMatMulAdd compares the workspace's
// row-at-a-time product with linalg.MatMulAdd into a zero matrix, bit for
// bit, on random blocks a quarter of whose entries are zero: the zeros in
// A take the skipped-term path, those in B only change values.
func TestInPlaceProductMatchesMatMulAdd(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{1, 4, 32, 40} {
		a := linalg.NewMat(n, n).Random(rng)
		b := linalg.NewMat(n, n).Random(rng)
		for i := range a.Data {
			if rng.Intn(4) == 0 {
				a.Data[i] = 0
			}
			if rng.Intn(4) == 0 {
				b.Data[i] = 0
			}
		}
		want := linalg.NewMat(n, n)
		linalg.MatMulAdd(want, a, b)
		got := a.Clone()
		mulInPlace(got, b, make([]float64, n))
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("n = %d: entry (%d, %d) is %v in place, %v from MatMulAdd", n, i/n, i%n, got.Data[i], w)
			}
		}
	}
}

func TestPartialMachineUse(t *testing.T) {
	// q=2 on 64 processors leaves 56 idle; the run must still complete
	// and verify.
	m := machines(t)["gcel"]
	res, err := Run(m, Config{N: 16, Q: 2, Variant: BSPStaggered, Seed: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > tolFor(m) {
		t.Fatalf("max err %g", res.MaxErr)
	}
}

// TestFaultedRunAfterReturnsFails runs Fig 3's MasPar staggered BSP
// multiply at q = 8, where 512 of the 1024 PEs have no work and return at
// once, on a machine whose PE 3 crashed at time zero. The first superstep
// then exhausts a delivery budget while half the processors have already
// returned; the run must report that as an error, not crash.
func TestFaultedRunAfterReturnsFails(t *testing.T) {
	m := machines(t)["maspar"]
	plan, err := faults.NewPlan(faults.Spec{
		Seed:     7,
		DropRate: 0.05,
		Crashes:  []faults.Crash{{Proc: 3, At: 0}},
		Protocol: faults.Protocol{MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.InjectFaults(m, plan); err != nil {
		t.Fatal(err)
	}
	_, err = Run(m, Config{N: 64, Q: 8, Variant: BSPStaggered, Seed: 1996 + 64})
	if !errors.As(err, new(*faults.DeliveryError)) {
		t.Fatalf("faulted run returned %v, want a *faults.DeliveryError", err)
	}
}
