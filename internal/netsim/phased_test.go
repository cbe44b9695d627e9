package netsim

import (
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// flatTransit is a contention-free network with fixed latency.
func flatTransit(latency sim.Time) Transit {
	return func(src, dst, bytes int, depart sim.Time, links *LinkTable, stats *comm.Stats) sim.Time {
		return depart + latency
	}
}

func phasedTestConfig() PhasedConfig {
	return PhasedConfig{
		Procs: 8,
		Overheads: Overheads{
			OSend:      10,
			ORecv:      100,
			CSendByte:  0.5,
			CRecvByte:  0.5,
			OSendBlock: 20,
			ORecvBlock: 40,
			WordBytes:  8,
		},
	}
}

func newPhasedNet(t *testing.T, cfg PhasedConfig) *Phased {
	t.Helper()
	n, err := NewPhased(cfg, 0, flatTransit(5))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPhasedValidation(t *testing.T) {
	if _, err := NewPhased(PhasedConfig{Procs: 0}, 0, flatTransit(0)); err == nil {
		t.Fatal("zero processors accepted")
	}
	if _, err := NewPhased(PhasedConfig{Procs: 4}, 0, nil); err == nil {
		t.Fatal("nil transit accepted")
	}
}

func TestWordMessageCostDecomposition(t *testing.T) {
	n := newPhasedNet(t, phasedTestConfig())
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 4}}
	res := n.Route(s, nil)
	// send 10+2, transit 5, receive 100+2 = 119
	if d := res.Elapsed - 119; d < -1e-9 || d > 1e-9 {
		t.Fatalf("word message cost %g, want 119", res.Elapsed)
	}
}

func TestBlockUsesBlockOverheads(t *testing.T) {
	n := newPhasedNet(t, phasedTestConfig())
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 100}}
	res := n.Route(s, nil)
	// block send 20+50, transit 5, block receive 40+50 = 165
	if d := res.Elapsed - 165; d < -1e-9 || d > 1e-9 {
		t.Fatalf("block message cost %g, want 165", res.Elapsed)
	}
}

func TestSendsSerializeOnSenderCPU(t *testing.T) {
	n := newPhasedNet(t, phasedTestConfig())
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	for i := 0; i < 5; i++ {
		s.Sends[0] = append(s.Sends[0], comm.Msg{Src: 0, Dst: 1 + i, Bytes: 4})
	}
	res := n.Route(s, nil)
	// Last injection at 5*12, +5 transit, +102 receive.
	if d := res.Elapsed - (60 + 5 + 102); d < -1e-9 || d > 1e-9 {
		t.Fatalf("fan-out cost %g, want 167", res.Elapsed)
	}
}

func TestReceiverDrainsAfterOwnSends(t *testing.T) {
	n := newPhasedNet(t, phasedTestConfig())
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	// Processor 1 is busy sending 10 messages; an incoming message can
	// only be received afterwards.
	for i := 0; i < 10; i++ {
		s.Sends[1] = append(s.Sends[1], comm.Msg{Src: 1, Dst: 2 + i%6, Bytes: 4})
	}
	s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 4}}
	res := n.Route(s, nil)
	sendDone := 10.0 * 12
	if res.Finish[1] < sendDone+102 {
		t.Fatalf("processor 1 finished at %g, cannot beat sends(%g)+receive(102)", res.Finish[1], sendDone)
	}
}

func TestFiniteBufferRetry(t *testing.T) {
	cfg := phasedTestConfig()
	cfg.RecvBuffer = 4
	cfg.RetryPenalty = 1000
	cfg.NackCost = 50
	n := newPhasedNet(t, cfg)

	mk := func(h int) *comm.Step {
		s := &comm.Step{Sends: make([][]comm.Msg, 8)}
		for i := 0; i < h; i++ {
			s.Sends[0] = append(s.Sends[0], comm.Msg{Src: 0, Dst: 1, Bytes: 4})
		}
		return s
	}
	ok := n.Route(mk(4), nil)
	if ok.Stats.BufferFulls != 0 {
		t.Fatalf("overflow within capacity: %d", ok.Stats.BufferFulls)
	}
	over := n.Route(mk(20), nil)
	if over.Stats.BufferFulls == 0 {
		t.Fatal("no overflow beyond capacity")
	}
	// Each NACK burns receiver CPU: 20 messages must cost more than 20x
	// the overflow-free per-message cost.
	perMsg := ok.Elapsed / 4
	if over.Elapsed <= 20*perMsg {
		t.Fatalf("no elevation: %g vs %g", over.Elapsed, 20*perMsg)
	}
}

func TestLinkTableClaim(t *testing.T) {
	lt := NewLinkTable(2)
	if end := lt.Claim(0, 10, 5); end != 15 {
		t.Fatalf("first claim ends at %g", end)
	}
	if end := lt.Claim(0, 12, 5); end != 20 {
		t.Fatalf("queued claim ends at %g, want 20", end)
	}
	if end := lt.Claim(1, 0, 3); end != 3 {
		t.Fatalf("other link claim ends at %g", end)
	}
	lt.Reset()
	if end := lt.Claim(0, 0, 1); end != 1 {
		t.Fatalf("claim after reset ends at %g", end)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// A transit that funnels every message over one shared link.
	shared := func(src, dst, bytes int, depart sim.Time, links *LinkTable, stats *comm.Stats) sim.Time {
		return links.Claim(0, depart, 50)
	}
	cfg := phasedTestConfig()
	n, err := NewPhased(cfg, 1, shared)
	if err != nil {
		t.Fatal(err)
	}
	s := &comm.Step{Sends: make([][]comm.Msg, 8)}
	for i := 0; i < 4; i++ {
		s.Sends[i] = []comm.Msg{{Src: i, Dst: 7, Bytes: 4}}
	}
	res := n.Route(s, nil)
	// Four messages serialized on the link: last arrives at >= 4*50.
	if res.Finish[7] < 200 {
		t.Fatalf("shared link did not serialize: finish %g", res.Finish[7])
	}
}

// TestPhasedTransitOrder pins the order in which the injections reach the
// transit function (FCFS link arbitration depends on it): by departure
// time, ties to the lower source, then to send order. The steps are full
// of exact ties across sources, and their destinations fall as the source
// rises, so a merge that broke ties any other way would show.
func TestPhasedTransitOrder(t *testing.T) {
	type call struct {
		depart   sim.Time
		src, idx int
	}
	for _, tc := range []struct {
		name   string
		osend  float64
		jitter float64
		offset func(src int) sim.Time
	}{
		{"zero overheads, equal offsets", 0, 0, func(int) sim.Time { return 3 }},
		{"zero overheads, grouped offsets", 0, 0, func(src int) sim.Time { return sim.Time(src%3) * 2 }},
		{"equal overheads, equal offsets", 1.5, 0, func(int) sim.Time { return 0 }},
		{"jittered overheads", 4, 0.3, func(src int) sim.Time { return sim.Time(src % 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := phasedTestConfig()
			cfg.OSend, cfg.OSendBlock, cfg.CSendByte = tc.osend, tc.osend, 0
			cfg.Jitter = tc.jitter
			var calls []call
			record := func(src, dst, bytes int, depart sim.Time, links *LinkTable, stats *comm.Stats) sim.Time {
				calls = append(calls, call{depart: depart, src: src, idx: bytes})
				return depart + 5
			}
			n, err := NewPhased(cfg, 0, record)
			if err != nil {
				t.Fatal(err)
			}
			const p, sends = 8, 5
			s := &comm.Step{Sends: make([][]comm.Msg, p), Offsets: make([]sim.Time, p)}
			for src := 0; src < p; src++ {
				s.Offsets[src] = tc.offset(src)
				for i := 0; i < sends; i++ {
					// Bytes carry the send index; they cost nothing to send.
					s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: (2*p - 1 - src - i) % p, Bytes: i})
				}
			}
			n.Route(s, sim.NewRNG(9))
			if len(calls) != p*sends {
				t.Fatalf("transit called %d times for %d messages", len(calls), p*sends)
			}
			for i := 1; i < len(calls); i++ {
				a, b := calls[i-1], calls[i]
				if b.depart < a.depart || b.depart <= a.depart && (b.src < a.src || b.src == a.src && b.idx <= a.idx) {
					t.Fatalf("transit call %d %+v came after %+v", i, b, a)
				}
			}
		})
	}
}

// BenchmarkPhasedRouteAllToAll prices a full exchange end to end, tracking
// the allocation footprint of the whole pipeline.
func BenchmarkPhasedRouteAllToAll(b *testing.B) {
	n, err := NewPhased(phasedTestConfig(), 0, flatTransit(5))
	if err != nil {
		b.Fatal(err)
	}
	p := 8
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
