package netsim_test

import (
	"errors"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

// The fault-protocol conformance suite extends the router contract to the
// degraded regime: every registered backend, priced under one fixed fault
// schedule, must converge through the reliable-delivery protocol (with
// retransmissions actually exercised), reproduce byte-identical results on
// a twin machine, and turn the three terminal conditions - exhausted retry
// budget, network partition, livelock - into structured panics instead of
// hangs. Clearing the plan must restore the exact fault-free pricing and
// its zero-allocation hot path.

// conformanceSpec is the fixed drop/kill schedule every backend runs
// under: a lossy network (drop + corrupt + delay + duplicate), one dead
// link, and one stall window. The kill and the stall are chosen to be
// survivable on every registered topology.
func conformanceSpec() faults.Spec {
	return faults.Spec{
		Seed:          0xFA17,
		DropRate:      0.15,
		CorruptRate:   0.05,
		DelayRate:     0.05,
		DuplicateRate: 0.05,
		LinkKills:     []faults.LinkKill{{U: 0, V: 1, KillAt: 0}},
		Stalls:        []faults.Stall{{Proc: 1, At: 0, Duration: 500}},
		// All-to-all steps price thousands of messages; with ~25% loss each
		// way the default budget of 8 retries would lose a message every few
		// thousand, so the conformance schedule buys enough rounds to make
		// convergence certain (loss^33 per message).
		Protocol: faults.Protocol{MaxRetries: 32},
	}
}

// armed builds the named machine and activates a plan compiled from spec,
// returning the raw (cache-free) router, the machine's Net. Routing happens
// on the raw router so the assertions see the protocol itself, not the
// memo layer.
func armed(t testing.TB, name string, spec faults.Spec) *netsim.Core {
	t.Helper()
	_, raw := routerOf(t, name)
	plan, err := faults.NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw.SetFaultPlan(plan)
	return raw
}

// routeRecover prices one step, converting a protocol panic into an error.
func routeRecover(r comm.Router, s *comm.Step, rng *sim.RNG) (res comm.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok {
				err = e
				return
			}
			panic(rec)
		}
	}()
	return r.Route(s, rng), nil
}

func TestFaultProtocolConformance(t *testing.T) {
	for _, name := range machine.Names() {
		t.Run(name, func(t *testing.T) {
			t.Run("converges with retries", func(t *testing.T) {
				faulty := armed(t, name, conformanceSpec())
				p := faulty.Procs()
				_, clean := routerOf(t, name)

				s := steadyStep(p, 32)
				var faultyTotal, cleanTotal sim.Time
				var stats comm.Stats
				for i := 0; i < 3; i++ {
					res := faulty.Route(s, sim.NewRNG(11))
					for q := 1; q < p; q++ {
						if res.Finish[q] != res.Finish[0] {
							t.Fatalf("step %d: protocol finish not uniform: %g vs %g", i, res.Finish[q], res.Finish[0])
						}
					}
					faultyTotal += res.Elapsed
					stats.Add(res.Stats)
					cleanTotal += clean.Route(s, sim.NewRNG(11)).Elapsed
				}
				if stats.Retries == 0 || stats.Dropped == 0 || stats.Acks == 0 {
					t.Fatalf("protocol not exercised: %+v", stats)
				}
				if faultyTotal <= cleanTotal {
					t.Fatalf("faulty pricing %g us not above fault-free %g us", faultyTotal, cleanTotal)
				}
			})

			t.Run("byte-identical twin runs", func(t *testing.T) {
				a := armed(t, name, conformanceSpec())
				b := armed(t, name, conformanceSpec())
				p := a.Procs()
				for i, s := range []*comm.Step{steadyStep(p, 32), steadyStep(p, 8), steadyStep(p, 32)} {
					ra := a.Route(s, sim.NewRNG(uint64(i)))
					rb := b.Route(s, sim.NewRNG(uint64(i)))
					if ra.Elapsed != rb.Elapsed || ra.Stats != rb.Stats || ra.Events != rb.Events {
						t.Fatalf("step %d diverged between twins:\n  a: %+v %+v\n  b: %+v %+v",
							i, ra.Elapsed, ra.Stats, rb.Elapsed, rb.Stats)
					}
				}
			})

			t.Run("retry budget exhaustion is structured", func(t *testing.T) {
				raw := armed(t, name, faults.Spec{
					Seed:     1,
					DropRate: 1, // every frame lost: no delivery can ever complete
					Protocol: faults.Protocol{MaxRetries: 2, Timeout: 10},
				})
				p := raw.Procs()
				_, err := routeRecover(raw, steadyStep(p, 16), sim.NewRNG(3))
				var de *faults.DeliveryError
				if !errors.As(err, &de) {
					t.Fatalf("total loss produced %v, want *faults.DeliveryError", err)
				}
				if de.Router != raw.Name() || de.Attempts != 3 {
					t.Fatalf("delivery error lacks provenance: %+v", de)
				}
			})

			t.Run("livelock watchdog aborts", func(t *testing.T) {
				raw := armed(t, name, faults.Spec{
					Seed:     2,
					Watchdog: faults.Watchdog{MaxEvents: 3},
				})
				p := raw.Procs()
				_, err := routeRecover(raw, steadyStep(p, 16), sim.NewRNG(4))
				var de *sim.DeadlineError
				if !errors.As(err, &de) {
					t.Fatalf("tiny event budget produced %v, want *sim.DeadlineError", err)
				}
				if de.Router != raw.Name() {
					t.Fatalf("deadline error names router %q, want %q", de.Router, raw.Name())
				}
			})

			t.Run("clearing the plan restores fault-free pricing", func(t *testing.T) {
				used := armed(t, name, conformanceSpec())
				p := used.Procs()
				s := steadyStep(p, 24)
				used.Route(s, sim.NewRNG(5)) // exercise the protocol scratch

				used.SetFaultPlan(nil)
				_, never := routerOf(t, name)
				cleared := used.Route(s, sim.NewRNG(6))
				pristine := never.Route(s, sim.NewRNG(6))
				if cleared.Elapsed != pristine.Elapsed || cleared.Stats != pristine.Stats || cleared.Events != pristine.Events {
					t.Fatalf("cleared plan leaves residue: %+v vs pristine %+v", cleared, pristine)
				}
				if allocs := testing.AllocsPerRun(10, func() { used.Route(s, nil) }); allocs != 0 {
					t.Fatalf("fault-disabled Route allocates %v objects per call, want 0", allocs)
				}
			})
		})
	}
}

// TestFaultPartitionIsStructured cuts the two route-around topologies in
// half and demands a structured topology.ErrPartitioned - never a hang or
// an arbitrary panic - from the first message that must cross the cut.
func TestFaultPartitionIsStructured(t *testing.T) {
	grid, err := topology.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var meshCut []faults.LinkKill
	for y := 0; y < 8; y++ {
		meshCut = append(meshCut, faults.LinkKill{U: grid.ID(0, y), V: grid.ID(1, y)})
	}
	// Isolating torus node 0 means cutting its two dimension-neighbours in
	// each of the three dimensions of the 4-ary cube.
	var torusCut []faults.LinkKill
	for _, v := range []int{1, 3, 4, 12, 16, 48} {
		torusCut = append(torusCut, faults.LinkKill{U: 0, V: v})
	}

	cases := []struct {
		name  string
		kills []faults.LinkKill
	}{
		{"gcel", meshCut},
		{"cluster", torusCut},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := armed(t, c.name, faults.Spec{Seed: 9, LinkKills: c.kills})
			p := raw.Procs()
			s := &comm.Step{Sends: make([][]comm.Msg, p)}
			s.Sends[0] = []comm.Msg{{Src: 0, Dst: p - 1, Bytes: 16}}
			_, err := routeRecover(raw, s, sim.NewRNG(10))
			if !errors.Is(err, topology.ErrPartitioned) {
				t.Fatalf("cut network produced %v, want topology.ErrPartitioned", err)
			}
		})
	}
}
