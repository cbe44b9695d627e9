package backends_test

import (
	"testing"
	"testing/quick"

	"quantpar/internal/comm"
	"quantpar/internal/machine/backends"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
)

func gcelNet(t *testing.T) *netsim.Core {
	return rawNet(t, backends.GCel, backends.DefaultGCelParams())
}

func TestGCelValidation(t *testing.T) {
	p := backends.DefaultGCelParams()
	p.Width = 0
	if _, err := backends.GCel(p); err == nil {
		t.Fatal("0-width mesh accepted")
	}
}

func TestGCelSingleMessageLatency(t *testing.T) {
	r := gcelNet(t)
	p := backends.DefaultGCelParams()
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 9, Bytes: 4}} // 2 hops
	res := r.Route(s, nil)
	// Sender overhead + 2 store-and-forward hops + receiver overhead,
	// all byte terms small.
	want := p.OSend + 4*p.CSendByte + 2*(p.THop+4*p.TByteLink) + p.ORecv + 4*p.CRecvByte
	if diff := res.Elapsed - want; diff < -1 || diff > 1 {
		t.Fatalf("single word message cost %g, want ~%g", res.Elapsed, want)
	}
}

func TestGCelReceiverOverheadDominates(t *testing.T) {
	// One sender firing h messages at h receivers finishes long before a
	// single receiver absorbing h messages: the asymmetry behind the
	// multinode-scatter discount (Fig 14).
	r := gcelNet(t)
	const h = 16
	fanOut := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	for i := 1; i <= h; i++ {
		fanOut.Sends[0] = append(fanOut.Sends[0], comm.Msg{Src: 0, Dst: i, Bytes: 4})
	}
	fanIn := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	for i := 1; i <= h; i++ {
		fanIn.Sends[i] = append(fanIn.Sends[i], comm.Msg{Src: i, Dst: 0, Bytes: 4})
	}
	tOut := r.Route(fanOut, sim.NewRNG(1)).Elapsed
	tIn := r.Route(fanIn, sim.NewRNG(1)).Elapsed
	if tIn < 2*tOut {
		t.Fatalf("fan-in %g not much dearer than fan-out %g", tIn, tOut)
	}
}

func TestGCelBufferOverflowPenalty(t *testing.T) {
	r := gcelNet(t)
	p := backends.DefaultGCelParams()
	pairwise := func(h int) *comm.Step {
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
		for src := 0; src < r.Procs(); src++ {
			dst := src ^ 1
			for i := 0; i < h; i++ {
				s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 4})
			}
		}
		return s
	}
	below := r.Route(pairwise(p.RecvBuffer/2), sim.NewRNG(1))
	above := r.Route(pairwise(p.RecvBuffer*2), sim.NewRNG(1))
	if below.Stats.BufferFulls != 0 {
		t.Fatalf("overflow below capacity: %d", below.Stats.BufferFulls)
	}
	if above.Stats.BufferFulls == 0 {
		t.Fatal("no overflow at twice the buffer capacity")
	}
	perMsgBelow := below.Elapsed / sim.Time(p.RecvBuffer/2)
	perMsgAbove := above.Elapsed / sim.Time(p.RecvBuffer*2)
	if perMsgAbove <= perMsgBelow {
		t.Fatalf("no elevation from overflow: %g vs %g per message", perMsgAbove, perMsgBelow)
	}
}

func TestGCelOffsetsDelayCompletion(t *testing.T) {
	r := gcelNet(t)
	s := func() *comm.Step {
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
		s.Sends[5] = []comm.Msg{{Src: 5, Dst: 6, Bytes: 4}}
		return s
	}
	aligned := r.Route(s(), sim.NewRNG(1)).Elapsed
	skewed := s()
	skewed.Offsets = make([]sim.Time, r.Procs())
	skewed.Offsets[5] = 5000
	delayed := r.Route(skewed, sim.NewRNG(1)).Elapsed
	if delayed < aligned+4999 {
		t.Fatalf("skewed sender finished at %g, aligned at %g", delayed, aligned)
	}
}

func TestGCelBarrierAlignsFinishTimes(t *testing.T) {
	r := gcelNet(t)
	s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 4}}
	res := r.Route(s, sim.NewRNG(1))
	for i, f := range res.Finish {
		if f != res.Elapsed {
			t.Fatalf("barrier step: processor %d finishes at %g, elapsed %g", i, f, res.Elapsed)
		}
	}
	// Without a barrier the finish times differ.
	s2 := &comm.Step{Sends: make([][]comm.Msg, r.Procs())}
	s2.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 4}}
	res2 := r.Route(s2, sim.NewRNG(1))
	if res2.Finish[0] == res2.Finish[1] {
		t.Fatal("unbarriered step left no skew")
	}
}

func TestGCelJitterIsSeedDeterministic(t *testing.T) {
	r := gcelNet(t)
	mk := func() *comm.Step {
		s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
		for i := 0; i < r.Procs(); i++ {
			s.Sends[i] = []comm.Msg{{Src: i, Dst: (i + 1) % r.Procs(), Bytes: 4}}
		}
		return s
	}
	a := r.Route(mk(), sim.NewRNG(42)).Elapsed
	b := r.Route(mk(), sim.NewRNG(42)).Elapsed
	c := r.Route(mk(), sim.NewRNG(43)).Elapsed
	if a != b {
		t.Fatalf("same seed, different times: %g vs %g", a, b)
	}
	if a == c {
		t.Fatal("different seeds produced identical jitter")
	}
}

// Property: block messages cost more than word messages and cost grows
// with size.
func TestGCelBlockMonotoneInBytes(t *testing.T) {
	r := gcelNet(t)
	f := func(seed uint64, szRaw uint16) bool {
		sz := int(szRaw)%4096 + 16
		rng := sim.NewRNG(seed)
		perm := rng.Perm(r.Procs())
		mk := func(bytes int) sim.Time {
			s := &comm.Step{Sends: make([][]comm.Msg, r.Procs()), Barrier: true}
			for src, dst := range perm {
				s.Sends[src] = []comm.Msg{{Src: src, Dst: dst, Bytes: bytes}}
			}
			return r.Route(s, sim.NewRNG(seed)).Elapsed
		}
		return mk(2*sz) > mk(sz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
