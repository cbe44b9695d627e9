package apsp

import (
	"testing"
	"testing/quick"

	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends"
)

func all(t *testing.T) []*machine.Machine {
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
	return []*machine.Machine{mp, gc, cm}
}

func tolFor(m *machine.Machine) float64 {
	if m.WordBytes == 4 {
		return 1e-2 // float32 wire word
	}
	return 1e-9
}

func TestCorrectOnAllMachines(t *testing.T) {
	for _, m := range all(t) {
		n := 2 * isqrt(m.P()) // exercises the M < sqrt(P) path on the MasPar
		res, err := Run(m, Config{N: n, Seed: 13, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.MaxErr > tolFor(m) {
			t.Fatalf("%s: max err %g", m.Name, res.MaxErr)
		}
	}
}

func TestBothBroadcastRegimes(t *testing.T) {
	gc := all(t)[1] // GCel: sqrt(P) = 8
	// M = 8 = sqrt(P): the two-superstep path.
	big, err := Run(gc, Config{N: 64, Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if big.MaxErr > tolFor(gc) {
		t.Fatalf("M>=sqrtP: err %g", big.MaxErr)
	}
	// M = 2 < 8: the scatter + doubling + group-gather path.
	small, err := Run(gc, Config{N: 16, Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if small.MaxErr > tolFor(gc) {
		t.Fatalf("M<sqrtP: err %g", small.MaxErr)
	}
}

// Property: sparse and dense graphs both verify, including unreachable
// pairs (the Inf handling through the 4-byte wire word).
func TestDensitySweepProperty(t *testing.T) {
	gc := all(t)[1]
	f := func(seed uint64, dense bool) bool {
		prob := 0.05
		if dense {
			prob = 0.5
		}
		res, err := Run(gc, Config{N: 32, EdgeProb: prob, Seed: seed, Verify: true})
		return err == nil && res.MaxErr <= tolFor(gc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	ms := all(t)
	gc, cm := ms[1], ms[2]
	if _, err := Run(gc, Config{N: 30}); err == nil {
		t.Fatal("indivisible N accepted")
	}
	if _, err := Run(gc, Config{N: 12}); err == nil {
		t.Fatal("M=1.5 accepted")
	}
	// A zero or negative size is an error, not a division by a zero
	// segment size or a negative matrix shape.
	for _, n := range []int{0, -8} {
		if _, err := Run(cm, Config{N: n}); err == nil {
			t.Errorf("N=%d accepted", n)
		}
	}
}

func TestTimingDeterminism(t *testing.T) {
	cm := all(t)[2]
	a, err := Run(cm, Config{N: 32, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cm, Config{N: 32, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if a.Run.Time != b.Run.Time {
		t.Fatalf("nondeterministic timing: %g vs %g", a.Run.Time, b.Run.Time)
	}
}

func isqrt(p int) int {
	s := 1
	for (s+1)*(s+1) <= p {
		s++
	}
	return s
}
