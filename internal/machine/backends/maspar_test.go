package backends_test

import (
	"testing"
	"testing/quick"

	"quantpar/internal/comm"
	"quantpar/internal/machine"
	"quantpar/internal/machine/backends"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
)

// rawNet builds a machine and returns its Net. The router tests price on
// the raw core, so every Route simulates and no memo entry is shared with
// another test.
func rawNet[P any](t *testing.T, build func(P) (*machine.Machine, error), p P) *netsim.Core {
	t.Helper()
	m, err := build(p)
	if err != nil {
		t.Fatal(err)
	}
	return m.Net
}

func masparNet(t *testing.T) *netsim.Core {
	return rawNet(t, backends.MasPar, backends.DefaultMasParParams())
}

func permStep(p int, perm []int, bytes int) *comm.Step {
	s := &comm.Step{Sends: make([][]comm.Msg, p), Barrier: true}
	for src, dst := range perm {
		if dst >= 0 {
			s.Sends[src] = []comm.Msg{{Src: src, Dst: dst, Bytes: bytes}}
		}
	}
	return s
}

func TestMasParValidation(t *testing.T) {
	p := backends.DefaultMasParParams()
	p.PEs = 100 // not a multiple of 16
	if _, err := backends.MasPar(p); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	p = backends.DefaultMasParParams()
	p.ClusterSize = 0
	if _, err := backends.MasPar(p); err == nil {
		t.Fatal("zero cluster size accepted")
	}
}

func TestMasParEmptyStepAndBarrier(t *testing.T) {
	r := masparNet(t)
	res := r.Route(&comm.Step{Sends: make([][]comm.Msg, r.Procs())}, sim.NewRNG(1))
	if res.Elapsed != 0 {
		t.Fatalf("empty non-barrier step cost %g", res.Elapsed)
	}
	res = r.Route(&comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}, sim.NewRNG(1))
	if lf := backends.DefaultMasParParams().LFixed; res.Elapsed != lf {
		t.Fatalf("pure barrier cost %g, want LFixed %g", res.Elapsed, lf)
	}
}

func TestMasParRouteDeterministic(t *testing.T) {
	r := masparNet(t)
	perm := sim.NewRNG(5).Perm(r.Procs())
	a := r.Route(permStep(r.Procs(), perm, 4), sim.NewRNG(1))
	b := r.Route(permStep(r.Procs(), perm, 4), sim.NewRNG(999))
	if a.Elapsed != b.Elapsed {
		t.Fatalf("same pattern priced differently: %g vs %g", a.Elapsed, b.Elapsed)
	}
}

// TestMasParCubePermutationDiscount prices the bitonic exchange: a one-bit
// XOR permutation of 4-byte words routes conflict-free in exactly
// ClusterSize waves, one per PE of a cluster channel, so it costs exactly
// LFixed + ClusterSize*(TCircuit + TLaunch + 4*TByte) for every bit.
func TestMasParCubePermutationDiscount(t *testing.T) {
	r := masparNet(t)
	p := backends.DefaultMasParParams()
	want := p.LFixed + sim.Time(p.ClusterSize)*(p.TCircuit+p.TLaunch+4*p.TByte)
	rng := sim.NewRNG(7)
	random := r.Route(permStep(r.Procs(), rng.Perm(r.Procs()), 4), rng).Elapsed

	cube := make([]int, r.Procs())
	for bit := 0; 1<<bit < r.Procs(); bit++ {
		for i := range cube {
			cube[i] = i ^ (1 << bit)
		}
		res := r.Route(permStep(r.Procs(), cube, 4), rng)
		if res.Elapsed != want || res.Stats.Waves != p.ClusterSize {
			t.Errorf("bit %d: %g us in %d waves, want %g us in %d", bit, res.Elapsed, res.Stats.Waves, want, p.ClusterSize)
		}
	}
	ratio := random / want
	if ratio < 1.6 || ratio > 3.5 {
		t.Fatalf("cube discount ratio %.2f (random %.0f, cube %.0f); paper ~2.2", ratio, random, want)
	}
}

func TestMasParPartialPermutationSublinear(t *testing.T) {
	r := masparNet(t)
	rng := sim.NewRNG(9)
	timeFor := func(active int) sim.Time {
		srcs := rng.Sample(r.Procs(), active)
		dsts := rng.Sample(r.Procs(), active)
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
		for i := range srcs {
			s.Sends[srcs[i]] = []comm.Msg{{Src: srcs[i], Dst: dsts[i], Bytes: 4}}
		}
		return r.Route(s, rng).Elapsed
	}
	t32, t1024 := timeFor(32), timeFor(1024)
	if t32 >= t1024 {
		t.Fatalf("partial permutation no cheaper: %g vs %g", t32, t1024)
	}
	if t32 > 0.35*t1024 {
		t.Fatalf("T(32)=%.0f not strongly sublinear vs T(1024)=%.0f (paper ~13%%)", t32, t1024)
	}
}

func TestMasParBlockStreamingScalesWithBytes(t *testing.T) {
	r := masparNet(t)
	perm := sim.NewRNG(3).Perm(r.Procs())
	t1 := r.Route(permStep(r.Procs(), perm, 256), sim.NewRNG(1)).Elapsed
	t2 := r.Route(permStep(r.Procs(), perm, 512), sim.NewRNG(1)).Elapsed
	// Doubling the block size should roughly double the byte-dominated
	// part; the ratio must be clearly above 1.5.
	if t2 < 1.5*t1 {
		t.Fatalf("block time barely grew: %g -> %g", t1, t2)
	}
}

func TestMasParBlockXORCheaperThanRandom(t *testing.T) {
	r := masparNet(t)
	rng := sim.NewRNG(4)
	random := r.Route(permStep(r.Procs(), rng.Perm(r.Procs()), 1024), rng).Elapsed
	cube := make([]int, r.Procs())
	for i := range cube {
		cube[i] = i ^ (1 << 9)
	}
	cubeT := r.Route(permStep(r.Procs(), cube, 1024), rng).Elapsed
	if cubeT >= random {
		t.Fatalf("XOR block permutation not cheaper: %g vs %g", cubeT, random)
	}
	// But the discount is bounded: blocks are much less pattern-sensitive
	// than words (Fig 10 vs Fig 8 of the paper).
	if random/cubeT > 1.6 {
		t.Fatalf("block discount %.2f too large", random/cubeT)
	}
}

func TestMasParMultipleMessagesPerPE(t *testing.T) {
	r := masparNet(t)
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	// PE 0 sends 10 messages; they serialize on its cluster channel.
	for i := 1; i <= 10; i++ {
		s.Sends[0] = append(s.Sends[0], comm.Msg{Src: 0, Dst: i * 16, Bytes: 4})
	}
	res := r.Route(s, sim.NewRNG(1))
	if res.Stats.Waves < 10 {
		t.Fatalf("10 serialized messages took %d waves", res.Stats.Waves)
	}
	if res.Stats.Msgs != 10 {
		t.Fatalf("stats msgs %d", res.Stats.Msgs)
	}
}

func TestMasParHConvergenceCostsMore(t *testing.T) {
	r := masparNet(t)
	// 32 senders to 32 distinct PEs vs 32 senders to one PE.
	spread := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	converge := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	for i := 0; i < 32; i++ {
		src := i * 32
		spread.Sends[src] = []comm.Msg{{Src: src, Dst: i*16 + 5, Bytes: 4}}
		converge.Sends[src] = []comm.Msg{{Src: src, Dst: 5, Bytes: 4}}
	}
	ts := r.Route(spread, sim.NewRNG(1)).Elapsed
	tc := r.Route(converge, sim.NewRNG(1)).Elapsed
	if tc <= ts {
		t.Fatalf("converging on one PE (%g) not slower than spreading (%g)", tc, ts)
	}
}

func TestMasParXnetShift(t *testing.T) {
	m, err := backends.MasPar(backends.DefaultMasParParams())
	if err != nil {
		t.Fatal(err)
	}
	base := m.XNet(4, 1)
	if far := m.XNet(4, 5); far <= base {
		t.Fatalf("longer shift not dearer: %g vs %g", far, base)
	}
	if big := m.XNet(400, 1); big <= base {
		t.Fatalf("bigger payload not dearer: %g vs %g", big, base)
	}
	if neg := m.XNet(4, -1); neg != base {
		t.Fatalf("negative distance priced differently: %g vs %g", neg, base)
	}
}

// Property: routing any random partial permutation completes with all
// messages accounted and non-negative elapsed time.
func TestMasParRouteTotalProperty(t *testing.T) {
	r := masparNet(t)
	f := func(seed uint64, activeRaw uint16) bool {
		active := int(activeRaw)%r.Procs() + 1
		rng := sim.NewRNG(seed)
		srcs := rng.Sample(r.Procs(), active)
		dsts := rng.Sample(r.Procs(), active)
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
		for i := range srcs {
			s.Sends[srcs[i]] = []comm.Msg{{Src: srcs[i], Dst: dsts[i], Bytes: 4}}
		}
		res := r.Route(s, rng)
		return res.Stats.Msgs == active && res.Elapsed > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
