package calibrate

import (
	"testing"
	"testing/quick"

	"quantpar/internal/comm"
	"quantpar/internal/fit"
	"quantpar/internal/machine"
	"quantpar/internal/machine/backends"
	"quantpar/internal/sim"
)

// --- pattern generator properties ---

func TestRandomPermutationIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		const p = 64
		s := RandomPermutation(p, 4, sim.NewRNG(seed))
		out, in := s.Degrees()
		for i := 0; i < p; i++ {
			if out[i] != 1 || in[i] != 1 {
				return false
			}
		}
		return s.Barrier
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialPermutationDegrees(t *testing.T) {
	f := func(seed uint64, aRaw uint8) bool {
		const p = 64
		active := int(aRaw)%p + 1
		s := PartialPermutation(p, active, 4, sim.NewRNG(seed))
		out, in := s.Degrees()
		nOut, nIn := 0, 0
		for i := 0; i < p; i++ {
			if out[i] > 1 || in[i] > 1 {
				return false
			}
			nOut += out[i]
			nIn += in[i]
		}
		return nOut == active && nIn == active
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOneToHRelationShape(t *testing.T) {
	f := func(seed uint64, hRaw uint8) bool {
		const p = 128
		h := int(hRaw)%32 + 1
		s := OneToHRelation(p, h, 4, sim.NewRNG(seed))
		out, in := s.Degrees()
		receivers := 0
		for i := 0; i < p; i++ {
			if out[i] != 1 {
				return false // every processor sends exactly one message
			}
			if in[i] > 0 {
				receivers++
				if in[i] > h {
					return false
				}
			}
		}
		return receivers == (p+h-1)/h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFullHRelationDegrees(t *testing.T) {
	const p, h = 32, 5
	s := FullHRelation(p, h, 4, sim.NewRNG(1))
	out, in := s.Degrees()
	for i := 0; i < p; i++ {
		if out[i] != h || in[i] != h {
			t.Fatalf("processor %d: out %d in %d, want %d", i, out[i], in[i], h)
		}
	}
}

func TestHHPermutationChunking(t *testing.T) {
	const p, h = 16, 700
	// Unsynchronized: one step (plus the final barrier flag).
	steps := HHPermutation(p, h, 4, 0, sim.NewRNG(2))
	if len(steps) != 1 || !steps[len(steps)-1].Barrier {
		t.Fatalf("unsync: %d steps, last barrier %v", len(steps), steps[len(steps)-1].Barrier)
	}
	if steps[0].NumMsgs() != p*h {
		t.Fatalf("unsync messages %d, want %d", steps[0].NumMsgs(), p*h)
	}
	// Synchronized every 256: ceil(700/256) = 3 steps, all barriered, and
	// every processor's traffic totals h with one fixed partner.
	steps = HHPermutation(p, h, 4, 256, sim.NewRNG(2))
	if len(steps) != 3 {
		t.Fatalf("sync: %d steps, want 3", len(steps))
	}
	total := 0
	partner := -1
	for _, s := range steps {
		if !s.Barrier {
			t.Fatal("sync chunk without barrier")
		}
		for _, m := range s.Sends[3] {
			if partner == -1 {
				partner = m.Dst
			}
			if m.Dst != partner {
				t.Fatal("partner changed between chunks")
			}
			total++
		}
	}
	if total != h {
		t.Fatalf("processor 3 sent %d messages, want %d", total, h)
	}
}

func TestCubePermutationInvolution(t *testing.T) {
	s := CubePermutation(64, 3, 4)
	for src := range s.Sends {
		dst := s.Sends[src][0].Dst
		if s.Sends[dst][0].Dst != src {
			t.Fatalf("cube permutation not an involution at %d", src)
		}
		if dst != src^8 {
			t.Fatalf("wrong bit: %d -> %d", src, dst)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range bit accepted")
		}
	}()
	CubePermutation(64, 6, 4)
}

func TestMultinodeScatterBounds(t *testing.T) {
	const p, srcs, h = 64, 8, 40
	s := MultinodeScatter(p, srcs, h, 4, sim.NewRNG(3))
	out, in := s.Degrees()
	senders := 0
	maxIn := 0
	for i := 0; i < p; i++ {
		if out[i] > 0 {
			senders++
			if out[i] != h {
				t.Fatalf("source %d sends %d, want %d", i, out[i], h)
			}
			if in[i] != 0 {
				t.Fatalf("source %d also receives", i)
			}
		}
		if in[i] > maxIn {
			maxIn = in[i]
		}
	}
	if senders != srcs {
		t.Fatalf("%d senders, want %d", senders, srcs)
	}
	bound := (srcs*h + (p - srcs) - 1) / (p - srcs)
	if maxIn > bound+1 {
		t.Fatalf("receiver got %d messages, bound ~%d", maxIn, bound)
	}
}

// --- measurement and fitting against a real router ---

func TestMeasureDeterminism(t *testing.T) {
	m, err := backends.MasPar(backends.DefaultMasParParams())
	if err != nil {
		t.Fatal(err)
	}
	gen := func(r comm.Router, rng *sim.RNG) *comm.Step { return RandomPermutation(r.Procs(), 4, rng) }
	a, err := Fixed(m).Measure(gen, 5, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fixed(m).Measure(gen, 5, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed measurements differ: %+v vs %+v", a, b)
	}
	if a.Min > a.Mean || a.Mean > a.Max {
		t.Fatalf("inconsistent summary %+v", a)
	}
}

func TestExtractRecoversPlausibleParameters(t *testing.T) {
	m, err := backends.MasPar(backends.DefaultMasParParams())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Style: StyleOneToH, Hs: []int{1, 4, 16, 32},
		Sizes: []int{16, 64, 256}, WordBytes: 4, Trials: 4,
	}
	p, err := Fixed(m).Extract(spec, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.G < 15 || p.G > 80 {
		t.Fatalf("implausible g %.1f", p.G)
	}
	if p.Sigma < 60 || p.Sigma > 180 {
		t.Fatalf("implausible sigma %.1f", p.Sigma)
	}
	if p.P != m.P() {
		t.Fatalf("P %d", p.P)
	}
	if p.String() == "" {
		t.Fatal("empty parameter string")
	}
}

// skewRouter prices every step at zero elapsed time and leaves its three
// processors finishing 0, 5 and 10 us into the step: the skews an
// unbarriered step hands on.
type skewRouter struct{}

func (skewRouter) Name() string { return "skew" }
func (skewRouter) Procs() int   { return 3 }
func (skewRouter) Route(*comm.Step, *sim.RNG) comm.Result {
	return comm.Result{Finish: []sim.Time{0, 5, 10}}
}

// A trial whose last step ends without a barrier lasts until its last
// processor finishes, so MeasureSteps adds the largest residual skew.
func TestMeasureStepsDrainsLargestSkew(t *testing.T) {
	gen := func(r comm.Router, _ *sim.RNG) []*comm.Step {
		return []*comm.Step{{Sends: make([][]comm.Msg, r.Procs())}}
	}
	s, err := Fixed(&machine.Machine{Router: skewRouter{}}).MeasureSteps(gen, 1, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 10 {
		t.Fatalf("trial time %g us, want 10 (the last processor's finish)", s.Mean)
	}
}

// TestSweeperWorkerCountInvariance is the calibrate-level half of the
// parallel-determinism contract: Measure, MeasureSteps and Curve must be
// byte-identical (float-for-float) between the serial path and any number
// of workers, because every trial draws from a stream derived only from
// (base, point, trial) and each worker routes on a private router.
func TestSweeperWorkerCountInvariance(t *testing.T) {
	factory := func() (*machine.Machine, error) { return backends.MasPar(backends.DefaultMasParParams()) }
	sweep := func(workers int) Sweeper { return Sweeper{Workers: workers, New: factory} }

	probe, err := factory()
	if err != nil {
		t.Fatal(err)
	}

	mGen := func(r comm.Router, rng *sim.RNG) *comm.Step { return RandomPermutation(r.Procs(), 4, rng) }
	sGen := func(r comm.Router, rng *sim.RNG) []*comm.Step { return HHPermutation(r.Procs(), 8, 4, 0, rng) }
	cGen := func(r comm.Router, h int, rng *sim.RNG) *comm.Step { return OneToHRelation(r.Procs(), h, 4, rng) }
	xs := []int{1, 4, 16}

	serialM, err := sweep(1).Measure(mGen, 6, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	serialS, err := sweep(1).MeasureSteps(sGen, 4, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	serialC, err := sweep(1).Curve(xs, cGen, 3, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}

	// A Fixed sweeper over one machine must agree with the factory path.
	got, err := Fixed(probe).Measure(mGen, 6, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if got != serialM {
		t.Fatalf("Fixed Measure %+v != serial sweeper %+v", got, serialM)
	}
	// Trial t draws from base.Split(t) alone, so pricing each trial by
	// hand on that stream must give the serial summary. A stream shared
	// by the trials fails here in every build; the worker comparisons
	// below see it only when concurrent draws happen to interleave.
	byHand := make([]float64, 6)
	for tr := range byHand {
		rng := sim.NewRNG(3).Split(uint64(tr))
		byHand[tr] = probe.Router.Route(mGen(probe.Router, rng), rng).Elapsed
	}
	if want := fit.Summarize(byHand); serialM != want {
		t.Fatalf("serial Measure %+v != per-trial streams %+v", serialM, want)
	}

	for _, workers := range []int{2, 4, 8} {
		m, err := sweep(workers).Measure(mGen, 6, sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		if m != serialM {
			t.Fatalf("Measure with %d workers diverged: %+v vs %+v", workers, m, serialM)
		}
		s, err := sweep(workers).MeasureSteps(sGen, 4, sim.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		if s != serialS {
			t.Fatalf("MeasureSteps with %d workers diverged: %+v vs %+v", workers, s, serialS)
		}
		c, err := sweep(workers).Curve(xs, cGen, 3, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := range serialC {
			if c[i] != serialC[i] {
				t.Fatalf("Curve with %d workers diverged at point %d: %+v vs %+v", workers, i, c[i], serialC[i])
			}
		}
	}
}

func TestCurveXY(t *testing.T) {
	pts := []Point{{X: 1, Mean: 10}, {X: 2, Mean: 20}}
	xs, ys := XY(pts)
	if xs[1] != 2 || ys[1] != 20 {
		t.Fatalf("XY unzip wrong: %v %v", xs, ys)
	}
}
