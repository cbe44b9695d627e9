package graphs

import (
	"math"
	"testing"
	"testing/quick"

	"quantpar/internal/linalg"
	"quantpar/internal/sim"
)

func TestRandomDigraphStructure(t *testing.T) {
	rng := sim.NewRNG(1)
	d := RandomDigraph(50, 0.3, 100, rng)
	edges := 0
	for i := 0; i < 50; i++ {
		if d.At(i, i) != 0 {
			t.Fatalf("diagonal entry (%d,%d) = %g", i, i, d.At(i, i))
		}
		for j := 0; j < 50; j++ {
			v := d.At(i, j)
			if i == j {
				continue
			}
			if v < Inf {
				if v < 1 || v >= 100 {
					t.Fatalf("edge length %g out of [1, 100)", v)
				}
				edges++
			}
		}
	}
	density := float64(edges) / float64(50*49)
	if math.Abs(density-0.3) > 0.06 {
		t.Fatalf("edge density %.2f, want ~0.3", density)
	}
}

func TestRandomDigraphBadProb(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("probability 2 accepted")
		}
	}()
	RandomDigraph(4, 2, 10, sim.NewRNG(1))
}

func TestFloydSmallKnownGraph(t *testing.T) {
	// 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
	d := RandomDigraph(3, 0, 10, sim.NewRNG(1))
	d.Set(0, 1, 1)
	d.Set(1, 2, 2)
	d.Set(0, 2, 10)
	out := Floyd(d)
	if out.At(0, 2) != 3 {
		t.Fatalf("shortest 0->2 = %g, want 3", out.At(0, 2))
	}
	if out.At(2, 0) < Inf {
		t.Fatalf("2->0 should be unreachable, got %g", out.At(2, 0))
	}
	// The input is untouched.
	if d.At(0, 2) != 10 {
		t.Fatal("Floyd mutated its input")
	}
}

// Property: Floyd's output satisfies the triangle inequality and is
// idempotent.
func TestFloydProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 12
		d := RandomDigraph(n, 0.25, 50, rng)
		out := Floyd(d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if out.At(i, j) > d.At(i, j) {
					return false // relaxation never increases distances
				}
				for k := 0; k < n; k++ {
					if out.At(i, j) > out.At(i, k)+out.At(k, j)+1e-9 {
						return false // triangle inequality
					}
				}
			}
		}
		again := Floyd(out)
		for i := range out.Data {
			// Idempotent up to summation associativity: a re-run may
			// re-derive a path sum in a different order and differ in the
			// last ulp.
			if math.Abs(out.Data[i]-again.Data[i]) > 1e-9*math.Max(1, out.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFloydNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square matrix accepted")
		}
	}()
	Floyd(linalg.NewMat(2, 3))
}
