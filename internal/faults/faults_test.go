package faults

import (
	"strings"
	"testing"
)

func mustPlan(t *testing.T, s Spec) *Plan {
	t.Helper()
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpecValidateRejectsBadSchedules(t *testing.T) {
	nan := 0.0
	nan /= nan
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"rate above one", Spec{DropRate: 1.5}, "outside [0, 1]"},
		{"negative rate", Spec{DelayRate: -0.1}, "outside [0, 1]"},
		{"nan rate", Spec{CorruptRate: nan}, "outside [0, 1]"},
		{"rates sum past one", Spec{DropRate: 0.6, DuplicateRate: 0.6}, "sum to"},
		{"self-loop kill", Spec{LinkKills: []LinkKill{{U: 3, V: 3}}}, "self-loop"},
		{"heal before kill", Spec{LinkKills: []LinkKill{{U: 0, V: 1, KillAt: 10, HealAt: 5}}}, "not after kill"},
		{"negative stall", Spec{Stalls: []Stall{{Proc: 1, Duration: -2}}}, "invalid window"},
		{"negative crash proc", Spec{Crashes: []Crash{{Proc: -1}}}, "negative processor"},
		{"sub-unit backoff", Spec{Protocol: Protocol{Backoff: 0.5}}, "must be >= 1"},
		{"negative retries", Spec{Protocol: Protocol{MaxRetries: -1}}, "retry budget"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
		if _, err := NewPlan(c.spec); err == nil {
			t.Errorf("%s: NewPlan accepted an invalid spec", c.name)
		}
	}
	good := Spec{Seed: 1, DropRate: 0.25, DuplicateRate: 0.25,
		LinkKills: []LinkKill{{U: 0, V: 1, KillAt: 5, HealAt: 9}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestDecodeSpec(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"seed": 9, "dropRate": 0.125, "protocol": {"maxRetries": 3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || s.DropRate != 0.125 || s.Protocol.MaxRetriesEffective() != 3 {
		t.Fatalf("decoded %+v", s)
	}
	if _, err := DecodeSpec([]byte(`{"dorpRate": 0.5}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	if _, err := DecodeSpec([]byte(`{"dropRate": 2}`)); err == nil {
		t.Fatal("invalid rate accepted")
	}
	if _, err := DecodeSpec([]byte(`{} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// FuzzFaultSpec: DecodeSpec must never panic, and any spec it accepts must
// survive its own invariants and compile into a plan.
func FuzzFaultSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed": 1996, "dropRate": 0.1, "corruptRate": 0.05}`))
	f.Add([]byte(`{"linkKills": [{"u": 0, "v": 1, "killAt": 3, "healAt": 8}]}`))
	f.Add([]byte(`{"stalls": [{"proc": 2, "at": 1, "duration": 4}], "crashes": [{"proc": 7, "at": 9}]}`))
	f.Add([]byte(`{"protocol": {"timeout": 100, "backoff": 1.5, "maxRetries": 2, "ackBytes": 16}}`))
	f.Add([]byte(`{"watchdog": {"maxEvents": 10, "horizon": 50}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted spec fails validation: %v", verr)
		}
		if _, err := NewPlan(s); err != nil {
			t.Fatalf("accepted spec fails to compile: %v", err)
		}
	})
}

// TestFrameFateDeterministic: frame fates and ack losses are pure
// functions of (seed, step, seq, attempt), independent of plan instance,
// of query order, and of how the two kinds of query interleave. A verdict
// drawn from a stream the plan advances, or keyed by anything the plan
// counts, breaks the twin's reverse-order answers.
func TestFrameFateDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, DropRate: 0.2, CorruptRate: 0.1, DelayRate: 0.05, DuplicateRate: 0.05}
	a, b := mustPlan(t, spec), mustPlan(t, spec)

	type key struct {
		step, seq uint64
		attempt   int
	}
	keys := []key{}
	for step := uint64(0); step < 4; step++ {
		for seq := uint64(0); seq < 32; seq++ {
			for att := 0; att < 3; att++ {
				keys = append(keys, key{step, seq, att})
			}
		}
	}
	forward := map[key]Fate{}
	ackLost := map[key]bool{}
	for _, k := range keys {
		forward[k] = a.FrameFate(k.step, k.seq, k.attempt)
		ackLost[k] = a.AckLost(k.step, k.seq, k.attempt)
	}
	// Query the twin plan in reverse order, ack first: same verdicts.
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := b.AckLost(k.step, k.seq, k.attempt); got != ackLost[k] {
			t.Fatalf("ack loss of %+v differs across plans/order: %v vs %v", k, got, ackLost[k])
		}
		if got := b.FrameFate(k.step, k.seq, k.attempt); got != forward[k] {
			t.Fatalf("fate of %+v differs across plans/order: %v vs %v", k, got, forward[k])
		}
	}
	// And the empirical rates are in the right ballpark.
	counts := map[Fate]int{}
	for _, f := range forward {
		counts[f]++
	}
	n := len(forward)
	if frac := float64(counts[Drop]) / float64(n); frac < 0.1 || frac > 0.3 {
		t.Fatalf("drop fraction %.3f far from configured 0.2", frac)
	}
	if counts[Deliver] == 0 || counts[Corrupt] == 0 {
		t.Fatalf("fate distribution degenerate: %v", counts)
	}
	lost := 0
	for _, l := range ackLost {
		if l {
			lost++
		}
	}
	if frac := float64(lost) / float64(n); frac < 0.2 || frac > 0.5 {
		t.Fatalf("ack-loss fraction %.3f far from configured 0.35", frac)
	}
}

func TestFrameFateZeroRates(t *testing.T) {
	p := mustPlan(t, Spec{Seed: 7})
	for seq := uint64(0); seq < 100; seq++ {
		if f := p.FrameFate(0, seq, 0); f != Deliver {
			t.Fatalf("zero-rate plan returned fate %v", f)
		}
		if p.AckLost(0, seq, 0) {
			t.Fatal("zero-rate plan lost an ack")
		}
	}
}

func TestLinkDeadWindows(t *testing.T) {
	p := mustPlan(t, Spec{LinkKills: []LinkKill{
		{U: 2, V: 5, KillAt: 10, HealAt: 20},
		{U: 7, V: 8, KillAt: 0}, // never heals
	}})
	// Clock 0: the [10, 20) window is not yet open, but the permanent
	// kill at 0 already is.
	if p.LinkDead(2, 5) {
		t.Fatal("windowed kill active before KillAt")
	}
	if !p.LinkDead(7, 8) || !p.LinkDead(8, 7) {
		t.Fatal("permanent kill not active (or not undirected) at clock 0")
	}
	p.Advance(15)
	if !p.LinkDead(2, 5) || !p.LinkDead(5, 2) {
		t.Fatal("windowed kill not active (or not undirected) inside window")
	}
	p.Advance(5) // clock 20 == HealAt
	if p.LinkDead(2, 5) {
		t.Fatal("kill still active at HealAt")
	}
	if !p.HasDeadLinks() {
		t.Fatal("permanent kill forgotten")
	}
	// Rewound to 0, the clock reaches 15 again: inside the window.
	p.ResetClock()
	p.Advance(15)
	if !p.LinkDead(2, 5) {
		t.Fatal("ResetClock did not rewind")
	}
}

func TestStallAndCrashWindows(t *testing.T) {
	p := mustPlan(t, Spec{
		Stalls:  []Stall{{Proc: 3, At: 10, Duration: 6}, {Proc: 3, At: 12, Duration: 20}},
		Crashes: []Crash{{Proc: 1, At: 50}},
	})
	if p.StallDelay(3) != 0 {
		t.Fatal("stall active before its window")
	}
	p.Advance(12)
	if d := p.StallDelay(3); d != 20 {
		t.Fatalf("overlapping stalls: remaining %g, want the longest (20)", float64(d))
	}
	if p.StallDelay(0) != 0 {
		t.Fatal("stall bled onto another processor")
	}
	if p.Crashed(1) {
		t.Fatal("crash active before its time")
	}
	p.Advance(38) // clock 50
	if !p.Crashed(1) || p.Crashed(3) {
		t.Fatal("crash activation wrong at clock 50")
	}
}

func TestMixKeyDistinguishesCoordinates(t *testing.T) {
	seen := map[uint64][4]uint64{}
	for step := uint64(0); step < 8; step++ {
		for seq := uint64(0); seq < 8; seq++ {
			for att := 0; att < 4; att++ {
				for kind := 0; kind < 2; kind++ {
					k := mixKey(step, seq, att, kind)
					coord := [4]uint64{step, seq, uint64(att), uint64(kind)}
					if prev, dup := seen[k]; dup && prev != coord {
						t.Fatalf("mixKey collision: %v and %v -> %#x", prev, coord, k)
					}
					seen[k] = coord
				}
			}
		}
	}
}

func TestDeliveryErrorMessage(t *testing.T) {
	e := &DeliveryError{Router: "gcel-mesh", Src: 3, Dst: 9, Seq: 17, Attempts: 9}
	msg := e.Error()
	for _, want := range []string{"gcel-mesh", "3 -> 9", "seq 17", "9 attempts"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
