package netsim

import (
	"testing"
	"testing/quick"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

func activeTestConfig() ActiveConfig {
	return ActiveConfig{
		Procs: 8,
		Overheads: Overheads{
			OSend:      6,
			ORecv:      3,
			CSendByte:  0.1,
			CRecvByte:  0.1,
			OSendBlock: 20,
			ORecvBlock: 14,
			WordBytes:  8,
		},
		Window:  4,
		Latency: func(src, dst, bytes int) sim.Time { return 1 },
	}
}

func newActiveNet(t *testing.T, cfg ActiveConfig) *Active {
	t.Helper()
	n, err := NewActive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestActiveValidation(t *testing.T) {
	cfg := activeTestConfig()
	cfg.Procs = 0
	if _, err := NewActive(cfg); err == nil {
		t.Fatal("zero processors accepted")
	}
	cfg = activeTestConfig()
	cfg.Window = 0
	if _, err := NewActive(cfg); err == nil {
		t.Fatal("zero window accepted")
	}
	cfg = activeTestConfig()
	cfg.Latency = nil
	if _, err := NewActive(cfg); err == nil {
		t.Fatal("nil latency accepted")
	}
}

func TestSingleMessage(t *testing.T) {
	n := newActiveNet(t, activeTestConfig())
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 8}}
	res := n.Route(s, nil)
	// send 6+0.8, latency 1, receive 3+0.8 = 11.6
	if d := res.Elapsed - 11.6; d < -1e-9 || d > 1e-9 {
		t.Fatalf("single message cost %g, want 11.6", res.Elapsed)
	}
}

func TestPairwiseExchangeCost(t *testing.T) {
	n := newActiveNet(t, activeTestConfig())
	const h = 100
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	for src := 0; src < 8; src++ {
		dst := src ^ 1
		for i := 0; i < h; i++ {
			s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 8})
		}
	}
	res := n.Route(s, nil)
	// Per-processor CPU work is h*(osend + orecv + copies) = 100 * 10.6;
	// the small window adds some stall idle time on top but must stay
	// within ~40% of the work bound.
	want := 100 * 10.6
	if res.Elapsed < want || res.Elapsed > want*1.4 {
		t.Fatalf("pairwise exchange cost %g, want in [%g, %g]", res.Elapsed, want, want*1.4)
	}
	if res.Stats.Stalls == 0 {
		t.Fatal("window 4 with h=100 produced no stalls")
	}
}

func TestConvergenceCausesStallsAndSlowdown(t *testing.T) {
	n := newActiveNet(t, activeTestConfig())
	const msgs = 120
	conv := &comm.Step{Sends: make([][]comm.Msg, 8)}
	for src := 1; src <= 4; src++ {
		for i := 0; i < msgs; i++ {
			conv.Sends[src] = append(conv.Sends[src], comm.Msg{Src: src, Dst: 0, Bytes: 8})
		}
	}
	spread := &comm.Step{Sends: make([][]comm.Msg, 8)}
	for src := 1; src <= 4; src++ {
		for i := 0; i < msgs; i++ {
			spread.Sends[src] = append(spread.Sends[src], comm.Msg{Src: src, Dst: 4 + (src % 4), Bytes: 8})
		}
	}
	tc := n.Route(conv, nil).Elapsed
	ts := n.Route(spread, nil).Elapsed
	if tc <= ts*1.5 {
		t.Fatalf("4-way convergence %g not much slower than spread %g", tc, ts)
	}
}

func TestDisagreesWithProcCount(t *testing.T) {
	n := newActiveNet(t, activeTestConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-sized step did not panic")
		}
	}()
	n.Route(&comm.Step{Sends: make([][]comm.Msg, 3)}, nil)
}

// Property: random steps always terminate with every processor done (the
// stall-and-service discipline is deadlock-free) and all messages counted.
func TestTerminationProperty(t *testing.T) {
	n := newActiveNet(t, activeTestConfig())
	f := func(seed uint64, kRaw uint16) bool {
		rng := sim.NewRNG(seed)
		k := int(kRaw)%300 + 1
		s := &comm.Step{Sends: make([][]comm.Msg, 8)}
		for i := 0; i < k; i++ {
			src, dst := rng.Intn(8), rng.Intn(8)
			s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 4 + rng.Intn(128)})
		}
		res := n.Route(s, rng)
		return res.Stats.Msgs == k && res.Elapsed >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetsRespected(t *testing.T) {
	n := newActiveNet(t, activeTestConfig())
	s := &comm.Step{Sends: make([][]comm.Msg, 8), Offsets: make([]sim.Time, 8)}
	s.Offsets[2] = 1000
	s.Sends[2] = []comm.Msg{{Src: 2, Dst: 3, Bytes: 8}}
	res := n.Route(s, nil)
	if res.Finish[3] < 1000 {
		t.Fatalf("receiver finished at %g before the skewed sender started", res.Finish[3])
	}
}

// BenchmarkActiveRouteAllToAll prices a full exchange end to end, tracking
// the allocation footprint of the whole event loop.
func BenchmarkActiveRouteAllToAll(b *testing.B) {
	n, err := NewActive(activeTestConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := n.cfg.Procs
	s := &comm.Step{Sends: make([][]comm.Msg, p)}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if dst != src {
				s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: 8})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Route(s, nil)
	}
}
