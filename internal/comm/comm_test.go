package comm

import (
	"slices"
	"testing"
	"testing/quick"

	"quantpar/internal/sim"
)

func stepOf(p int, msgs ...Msg) *Step {
	s := &Step{Sends: make([][]Msg, p)}
	for _, m := range msgs {
		s.Sends[m.Src] = append(s.Sends[m.Src], m)
	}
	return s
}

func TestDegreesAndHRelation(t *testing.T) {
	s := stepOf(4,
		Msg{Src: 0, Dst: 1, Bytes: 4},
		Msg{Src: 0, Dst: 2, Bytes: 4},
		Msg{Src: 3, Dst: 1, Bytes: 4},
	)
	out, in := s.Degrees()
	if out[0] != 2 || out[3] != 1 || out[1] != 0 {
		t.Fatalf("out degrees %v", out)
	}
	if in[1] != 2 || in[2] != 1 || in[0] != 0 {
		t.Fatalf("in degrees %v", in)
	}
	if h := max(slices.Max(out), slices.Max(in)); h != 2 {
		t.Fatalf("h-relation %d, want 2", h)
	}
}

func TestDegreesPanicsOnBadDestination(t *testing.T) {
	s := stepOf(2, Msg{Src: 0, Dst: 5, Bytes: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range destination did not panic")
		}
	}()
	s.Degrees()
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Msgs: 1, Bytes: 2, Waves: 3, Conflicts: 4, Stalls: 5, BufferFulls: 6, MaxLinkLoad: 7, HopSum: 8}
	b := Stats{Msgs: 10, Bytes: 20, Waves: 30, Conflicts: 40, Stalls: 50, BufferFulls: 60, MaxLinkLoad: 3, HopSum: 80}
	a.Add(b)
	want := Stats{Msgs: 11, Bytes: 22, Waves: 33, Conflicts: 44, Stalls: 55, BufferFulls: 66, MaxLinkLoad: 7, HopSum: 88}
	if a != want {
		t.Fatalf("sum %+v, want %+v", a, want)
	}
}

// Property: for any random step, the out- and in-degree vectors both sum
// to NumMsgs, the M of the step's (M, h1, h2)-relation.
func TestRelationConsistency(t *testing.T) {
	f := func(seed uint64, nMsgs uint8) bool {
		rng := sim.NewRNG(seed)
		const p = 16
		s := &Step{Sends: make([][]Msg, p)}
		for i := 0; i < int(nMsgs); i++ {
			src, dst := rng.Intn(p), rng.Intn(p)
			s.Sends[src] = append(s.Sends[src], Msg{Src: src, Dst: dst, Bytes: 4})
		}
		out, in := s.Degrees()
		sumOut, sumIn := 0, 0
		for i := 0; i < p; i++ {
			sumOut += out[i]
			sumIn += in[i]
		}
		return sumOut == int(nMsgs) && sumIn == int(nMsgs) && s.NumMsgs() == int(nMsgs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
