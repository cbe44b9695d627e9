package main

import (
	"fmt"
	"time"

	"quantpar/internal/comm"
	"quantpar/internal/machine"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// probe is the pair of router wrappers a traced machine routes through.
// outer sees every Route call bsplib makes, inner only those the phase
// memo could not replay: the time inside inner is netsim's, the time
// between the two is the memo's.
type probe struct {
	outer, inner *routerSpan
}

// newProbe rebuilds m's router, phase.Wrap(raw), as
// outer -> phase.Wrap(inner -> raw) with the raw router's own identity,
// so the memo keys, and with them every simulated result, are unchanged.
func newProbe(m *machine.Machine) (*probe, error) {
	u, ok := m.Router.(interface{ Unwrap() comm.Router })
	if !ok {
		return nil, fmt.Errorf("machine %s: router %T has no Unwrap", m.Name, m.Router)
	}
	raw := u.Unwrap()
	id, ok := raw.(interface {
		Fingerprint() uint64
		UsesRNG() bool
	})
	if !ok {
		return nil, fmt.Errorf("machine %s: router %T has no memo identity", m.Name, raw)
	}
	p := &probe{inner: newRouterSpan(raw)}
	p.outer = newRouterSpan(phase.Wrap(p.inner, id.Fingerprint(), id.UsesRNG()))
	m.Router = p.outer
	return p, nil
}

func (p *probe) reset() {
	p.outer.reset()
	p.inner.reset()
}

// routerSpan is a router wrapper that times the Route calls passing
// through it. It forwards Unwrap, through which bsplib and
// machine.InjectFaults reach the fault controller, and FaultsActive, which
// phase.Wrap probes for: without it faulty steps would be memoized and a
// traced run would simulate a different program.
type routerSpan struct {
	next   comm.Router
	faulty func() bool
	// busy is the host time spent in Route; replayBusy the part of it
	// spent on the replays calls.
	busy, replayBusy time.Duration
	replays          int64
}

func newRouterSpan(next comm.Router) *routerSpan {
	r := &routerSpan{next: next}
	if f, ok := next.(interface{ FaultsActive() bool }); ok {
		r.faulty = f.FaultsActive
	}
	return r
}

func (r *routerSpan) reset() {
	r.busy, r.replayBusy, r.replays = 0, 0, 0
}

func (r *routerSpan) Name() string        { return r.next.Name() }
func (r *routerSpan) Procs() int          { return r.next.Procs() }
func (r *routerSpan) Unwrap() comm.Router { return r.next }
func (r *routerSpan) FaultsActive() bool  { return r.faulty != nil && r.faulty() }

func (r *routerSpan) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	t0 := time.Now()
	res := r.next.Route(step, rng)
	d := time.Since(t0)
	r.busy += d
	if res.Replayed {
		r.replayBusy += d
		r.replays++
	}
	return res
}
