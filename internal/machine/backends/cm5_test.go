package backends_test

import (
	"testing"
	"testing/quick"

	"quantpar/internal/comm"
	"quantpar/internal/machine/backends"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
)

func cm5Net(t *testing.T) *netsim.Core {
	return rawNet(t, backends.CM5, backends.DefaultCM5Params())
}

func TestCM5Validation(t *testing.T) {
	p := backends.DefaultCM5Params()
	p.Procs = 48 // not a power of the arity
	if _, err := backends.CM5(p); err == nil {
		t.Fatal("invalid leaf count accepted")
	}
	p = backends.DefaultCM5Params()
	p.Window = 0
	if _, err := backends.CM5(p); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestCM5SingleMessageCost(t *testing.T) {
	r := cm5Net(t)
	p := backends.DefaultCM5Params()
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 8}}
	res := r.Route(s, nil)
	want := p.OSend + 8*p.CSendByte + 2*p.THop + 8*p.TByteNet + p.ORecv + 8*p.CRecvByte
	if d := res.Elapsed - want; d < -0.5 || d > 0.5 {
		t.Fatalf("single message cost %g, want ~%g", res.Elapsed, want)
	}
}

func TestCM5ConvergentSlowerThanStaggered(t *testing.T) {
	// The Fig 4 mechanism at router level: q senders each streaming k
	// messages to the same destination first are slower than destination-
	// rotated streams.
	r := cm5Net(t)
	const (
		senders = 4
		dests   = 4
		k       = 200
	)
	build := func(staggered bool) *comm.Step {
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
		for who := 0; who < senders; who++ {
			src := 8 + who
			for d := 0; d < dests; d++ {
				dst := d
				if staggered {
					dst = (d + who) % dests
				}
				for i := 0; i < k; i++ {
					s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 8})
				}
			}
		}
		return s
	}
	conv := r.Route(build(false), sim.NewRNG(1))
	stag := r.Route(build(true), sim.NewRNG(1))
	if conv.Elapsed <= stag.Elapsed*1.05 {
		t.Fatalf("convergent %g not slower than staggered %g", conv.Elapsed, stag.Elapsed)
	}
	if conv.Stats.Stalls == 0 {
		t.Fatal("convergent pattern produced no sender stalls")
	}
}

func TestCM5SelfMessagesAreLocal(t *testing.T) {
	r := cm5Net(t)
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
	s.Sends[3] = []comm.Msg{{Src: 3, Dst: 3, Bytes: 1 << 16}}
	res := r.Route(s, nil)
	want := float64(1<<16) * backends.DefaultCM5Params().CSendByte
	if d := res.Elapsed - want; d < -1 || d > 1 {
		t.Fatalf("self message cost %g, want ~%g (a local copy)", res.Elapsed, want)
	}
}

func TestCM5WindowOneStillCompletes(t *testing.T) {
	p := backends.DefaultCM5Params()
	p.Window = 1
	r := rawNet(t, backends.CM5, p)
	// Pairwise exchange with h >> window: the stall-and-service discipline
	// must avoid deadlock.
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	for src := 0; src < r.Procs(); src++ {
		dst := src ^ 1
		for i := 0; i < 50; i++ {
			s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 8})
		}
	}
	res := r.Route(s, sim.NewRNG(1))
	if res.Stats.Msgs != 50*r.Procs() {
		t.Fatalf("messages lost: %d", res.Stats.Msgs)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestCM5BarrierCost(t *testing.T) {
	r := cm5Net(t)
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 8}}
	free := r.Route(s, sim.NewRNG(1)).Elapsed
	s2 := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	s2.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 8}}
	barred := r.Route(s2, sim.NewRNG(1)).Elapsed
	want := backends.DefaultCM5Params().BarrierCost
	if d := (barred - free) - want; d < -1 || d > 1 {
		t.Fatalf("barrier added %g, want ~%g", barred-free, want)
	}
}

// Property: any random step completes with all messages delivered, no
// deadlock, and finish times at least the offsets.
func TestCM5NoDeadlockProperty(t *testing.T) {
	r := cm5Net(t)
	f := func(seed uint64, nMsgsRaw uint16) bool {
		rng := sim.NewRNG(seed)
		n := int(nMsgsRaw)%500 + 1
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
		for i := 0; i < n; i++ {
			src, dst := rng.Intn(r.Procs()), rng.Intn(r.Procs())
			s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 8 + rng.Intn(64)})
		}
		res := r.Route(s, rng)
		if res.Stats.Msgs != n {
			return false
		}
		for _, f := range res.Finish {
			if f < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCM5FullHRelationScalesLinearly(t *testing.T) {
	r := cm5Net(t)
	rng := sim.NewRNG(6)
	mk := func(h int) *comm.Step {
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
		for i := 0; i < h; i++ {
			perm := rng.Perm(r.Procs())
			for src, dst := range perm {
				s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 8})
			}
		}
		return s
	}
	// Check the marginal cost per unit h (the slope g), not the raw
	// ratio: the fixed latency and barrier make small-h points offset.
	t8 := r.Route(mk(8), sim.NewRNG(1)).Elapsed
	t32 := r.Route(mk(32), sim.NewRNG(1)).Elapsed
	slope := (t32 - t8) / 24
	p := backends.DefaultCM5Params()
	perMsg := p.OSend + p.ORecv + 16*p.CSendByte // both sides' work per h
	if slope < 0.7*perMsg || slope > 1.6*perMsg {
		t.Fatalf("h-relation slope %.2f us/message, want ~%.2f", slope, perMsg)
	}
}
