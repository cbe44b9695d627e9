package netsim_test

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends" // registers every backend under test
	"quantpar/internal/netsim"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// The conformance harness runs every registered machine backend - whatever
// engine it is built on - through the shared router contract: pricing
// trivial and degenerate steps, rejecting malformed ones, and honouring
// the phase-memo protocol. A new backend (see the cluster machine) gets
// all of this for free by registering itself.

// routerOf builds the named machine and returns its memoizing router
// facade plus the raw engine-backed router underneath, the machine's Net.
func routerOf(t testing.TB, name string) (*phase.CachedRouter, *netsim.Core) {
	t.Helper()
	m, err := machine.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := m.Router.(*phase.CachedRouter)
	if !ok || cr.Unwrap() != comm.Router(m.Net) {
		t.Fatalf("%s: machine router is %T, not a phase-cached router over the machine's Net", name, m.Router)
	}
	return cr, m.Net
}

// steadyStep builds the per-backend steady-state pattern: all-to-all on
// small machines, a cube permutation on large SIMD arrays (all-to-all on
// 1024 PEs would price a million messages per iteration).
func steadyStep(p, bytes int) *comm.Step {
	s := &comm.Step{Sends: make([][]comm.Msg, p)}
	if p > 256 {
		for src := 0; src < p; src++ {
			dst := (src + p/2) % p
			s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: bytes})
		}
		return s
	}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if dst != src {
				s.Sends[src] = append(s.Sends[src], comm.Msg{Src: src, Dst: dst, Bytes: bytes})
			}
		}
	}
	return s
}

func TestRouterConformance(t *testing.T) {
	names := machine.Names()
	if len(names) < 4 {
		t.Fatalf("expected at least 4 registered backends, have %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cached, raw := routerOf(t, name)
			p := raw.Procs()
			if p < 2 {
				t.Fatalf("degenerate machine with %d procs", p)
			}
			if raw.Name() == "" {
				t.Fatal("router has no name")
			}

			t.Run("empty step", func(t *testing.T) {
				res := raw.Route(&comm.Step{Sends: make([][]comm.Msg, p)}, sim.NewRNG(1))
				if res.Elapsed < 0 || res.Stats.Msgs != 0 {
					t.Fatalf("empty step priced %g us, %d msgs", res.Elapsed, res.Stats.Msgs)
				}
				if len(res.Finish) != p {
					t.Fatalf("finish vector has %d entries, want %d", len(res.Finish), p)
				}
			})

			t.Run("single message", func(t *testing.T) {
				s := &comm.Step{Sends: make([][]comm.Msg, p)}
				s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 64}}
				res := raw.Route(s, sim.NewRNG(2))
				if res.Elapsed <= 0 {
					t.Fatalf("single message priced %g us", res.Elapsed)
				}
				if res.Stats.Msgs != 1 || res.Stats.Bytes != 64 {
					t.Fatalf("stats %+v, want 1 msg / 64 bytes", res.Stats)
				}
			})

			t.Run("self send", func(t *testing.T) {
				s := &comm.Step{Sends: make([][]comm.Msg, p)}
				s.Sends[1] = []comm.Msg{{Src: 1, Dst: 1, Bytes: 16}}
				res := raw.Route(s, sim.NewRNG(3))
				if res.Stats.Msgs != 1 {
					t.Fatalf("self-send stats %+v", res.Stats)
				}
				if res.Elapsed < 0 {
					t.Fatalf("self-send priced %g us", res.Elapsed)
				}
			})

			t.Run("procs mismatch", func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("mis-sized step accepted")
					}
					if msg, ok := r.(string); !ok || !strings.Contains(msg, "netsim:") {
						t.Fatalf("panic %v does not identify the netsim core", r)
					}
				}()
				raw.Route(&comm.Step{Sends: make([][]comm.Msg, p+1)}, sim.NewRNG(4))
			})

			t.Run("malformed step", func(t *testing.T) {
				for _, tc := range []struct {
					name string
					edit func(s *comm.Step)
				}{
					{"destination past P", func(s *comm.Step) { s.Sends[0][0].Dst = p }},
					{"negative destination", func(s *comm.Step) { s.Sends[0][0].Dst = -1 }},
					{"negative bytes", func(s *comm.Step) { s.Sends[0][0].Bytes = -8 }},
					{"negative offset", func(s *comm.Step) { s.Offsets[1] = -5 }},
					{"NaN offset", func(s *comm.Step) { s.Offsets[1] = math.NaN() }},
					{"infinite offset", func(s *comm.Step) { s.Offsets[1] = math.Inf(1) }},
					{"short offsets", func(s *comm.Step) { s.Offsets = s.Offsets[:p-1] }},
				} {
					t.Run(tc.name, func(t *testing.T) {
						s := &comm.Step{Sends: make([][]comm.Msg, p), Offsets: make([]sim.Time, p)}
						s.Sends[0] = []comm.Msg{{Src: 0, Dst: 1, Bytes: 8}}
						tc.edit(s)
						defer func() {
							err, ok := recover().(error)
							if !ok {
								t.Fatal("malformed step did not panic with an error")
							}
							var rt runtime.Error
							if errors.As(err, &rt) || !strings.Contains(err.Error(), raw.Name()) ||
								!strings.Contains(err.Error(), "malformed step") {
								t.Fatalf("panic %q does not name the router and the malformed step", err)
							}
						}()
						raw.Route(s, sim.NewRNG(5))
					})
				}
			})

			t.Run("memo protocol", func(t *testing.T) {
				phase.ResetStore()
				s := steadyStep(p, 24)
				// Twin RNG streams: the second call starts from the exact
				// state the first one did, so it must replay.
				miss := cached.Route(s, sim.NewRNG(7))
				if miss.Replayed {
					t.Fatal("first routing of a fresh pattern replayed")
				}
				if miss.Events == 0 {
					t.Fatal("simulated step reported zero events")
				}
				hit := cached.Route(s, sim.NewRNG(7))
				if !hit.Replayed {
					t.Fatal("identical step from identical RNG state did not replay")
				}
				if hit.Elapsed != miss.Elapsed {
					t.Fatalf("replay priced %g, simulation priced %g", hit.Elapsed, miss.Elapsed)
				}
				if hit.Stats != miss.Stats {
					t.Fatalf("replay stats %+v != simulated %+v", hit.Stats, miss.Stats)
				}
			})
		})
	}
}

// BenchmarkRouterSteadyState re-prices one warm steady-state step per
// registered backend and asserts the hot path performs zero allocations
// per Route call: every engine's scratch (heaps, event queues, claim
// tables, finish vectors) must be reused across calls. This single
// registry-driven benchmark covers every backend at once.
func BenchmarkRouterSteadyState(b *testing.B) {
	for _, name := range machine.Names() {
		b.Run(name, func(b *testing.B) {
			_, r := routerOf(b, name)
			s := steadyStep(r.Procs(), 8)
			r.Route(s, nil) // populate scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Route(s, nil)
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(10, func() { r.Route(s, nil) }); allocs != 0 {
				b.Fatalf("steady-state Route allocates %v objects per call, want 0", allocs)
			}
		})
	}
}
