package linalg

import (
	"testing"
	"testing/quick"

	"quantpar/internal/sim"
)

// naive is the textbook ijk multiply used as an independent oracle.
func naive(a, b *Mat) *Mat {
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// Property: the ikj kernel agrees with the naive oracle.
func TestMatMulAgainstOracle(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw, kRaw uint8) bool {
		n, mm, k := int(nRaw)%12+1, int(mRaw)%12+1, int(kRaw)%12+1
		rng := sim.NewRNG(seed)
		a := NewMat(n, mm).Random(rng)
		b := NewMat(mm, k).Random(rng)
		return MaxAbsDiff(MatMul(a, b), naive(a, b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAdd(t *testing.T) {
	rng := sim.NewRNG(1)
	a := NewMat(4, 5).Random(rng)
	b := NewMat(5, 3).Random(rng)
	c := NewMat(4, 3).Random(rng)
	want := Add(c, MatMul(a, b))
	MatMulAdd(c, a, b)
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Fatal("MatMulAdd disagrees with Add(MatMul)")
	}
}

func TestShapePanics(t *testing.T) {
	a := NewMat(2, 3)
	b := NewMat(4, 2)
	cases := []func(){
		func() { MatMul(a, b) },
		func() { Add(a, b) },
		func() { MaxAbsDiff(a, b) },
		func() { MatMulAdd(NewMat(2, 2), a, NewMat(3, 3)) },
		func() { NewMat(-1, 2) },
		func() { a.BlockInto(NewMat(5, 5), 1, 1) },
		func() { a.SetBlock(1, 1, NewMat(5, 5)) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

// Property: BlockInto and SetBlock round-trip.
func TestBlockRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := NewMat(10, 8).Random(rng)
		r0, c0 := rng.Intn(6), rng.Intn(5)
		rows, cols := rng.Intn(10-r0)+1, rng.Intn(8-c0)+1
		blk := NewMat(rows, cols)
		m.BlockInto(blk, r0, c0)
		cp := m.Clone()
		cp.SetBlock(r0, c0, blk)
		return MaxAbsDiff(m, cp) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("clone shares storage")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	rng := sim.NewRNG(2)
	a := NewMat(3, 3).Random(rng)
	b := a.Clone()
	b.Set(1, 1, b.At(1, 1)+1e-6)
	if d := MaxAbsDiff(a, b); d < 1e-8 || d > 1e-5 {
		t.Fatalf("a 1e-6 perturbation measured as %g", d)
	}
}
