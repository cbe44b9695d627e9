package netsim

import (
	"fmt"
	"math"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// Spec is the declarative identity of one router backend: its model name
// plus every calibrated constant, registered once, in a fixed order. The
// phase memo cache's Fingerprint and the UsesRNG flag are derived from the
// registrations, so a backend cannot forget to fold a constant it prices
// with, and cannot disagree with itself about whether it draws jitter.
type Spec struct {
	name    string
	f       *phase.Fingerprinter
	usesRNG bool
}

// NewSpec starts a backend spec under the given model name. The name is
// folded into the fingerprint first, exactly as the hand-written
// Fingerprint methods folded Name().
func NewSpec(name string) *Spec {
	return &Spec{name: name, f: phase.NewFingerprinter(name)}
}

// Int folds integer constants into the identity, in argument order.
func (s *Spec) Int(vs ...int) *Spec {
	for _, v := range vs {
		s.f.Int(v)
	}
	return s
}

// F64 folds float constants into the identity, in argument order.
func (s *Spec) F64(vs ...float64) *Spec {
	for _, v := range vs {
		s.f.F64(v)
	}
	return s
}

// Jitter folds the relative-jitter constant and records that the backend
// draws from its RNG stream whenever the constant is non-zero. This is the
// one place the UsesRNG contract is decided.
func (s *Spec) Jitter(v float64) *Spec {
	s.f.F64(v)
	if v != 0 {
		s.usesRNG = true
	}
	return s
}

// Name returns the model name.
func (s *Spec) Name() string { return s.name }

// Fingerprint returns the identity fingerprint for the phase memo cache:
// equal fingerprints guarantee equal pricing.
func (s *Spec) Fingerprint() uint64 { return s.f.Sum() }

// UsesRNG reports whether the backend draws from the RNG it is handed.
func (s *Spec) UsesRNG() bool { return s.usesRNG }

// Engine is one instantiated simulation engine (Phased, Active or Wave):
// the part of a router that prices steps but has no name or cache identity.
// Watchdog exposes the engine's livelock guard, which the core labels and
// a fault plan tunes.
type Engine interface {
	Procs() int
	Route(step *comm.Step, rng *sim.RNG) comm.Result
	Watchdog() *sim.Watchdog
}

// Core couples a Spec with an Engine into a full router backend: it
// implements comm.Router, carries the Fingerprint/UsesRNG pair the phase
// memo cache keys on, and is the fault controller (SetFaultPlan,
// FaultPlan, ResetFaultClock). A machine holds its core as Machine.Net;
// backends pass topology closures to the engine and nothing else.
type Core struct {
	spec *Spec
	eng  Engine

	// Fault-injection state (nil plan = faults off, zero-cost fast path).
	plan *faults.Plan

	// Reliable-protocol scratch, allocated on first faulty Route.
	acked    []bool
	subSends [][]comm.Msg
	ackSends [][]comm.Msg
	offsets  []sim.Time
	finish   []sim.Time
	subStep  comm.Step
	ackStep  comm.Step
}

// NewCore builds the backend from its declarative identity and its engine,
// and labels the engine's watchdog with the model name so livelock aborts
// identify their router. Engines label their event queues from it.
func NewCore(spec *Spec, eng Engine) *Core {
	c := &Core{spec: spec, eng: eng}
	eng.Watchdog().Label = spec.name
	return c
}

// Name implements comm.Router.
func (c *Core) Name() string { return c.spec.name }

// Procs implements comm.Router.
func (c *Core) Procs() int { return c.eng.Procs() }

// Route implements comm.Router. It panics with an error on a malformed
// step (see validate). Without a fault plan it is a direct pass to the
// engine; with one, the step is priced under the reliable-delivery
// protocol.
func (c *Core) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	c.validate(step)
	if c.plan == nil {
		return c.eng.Route(step, rng)
	}
	return c.routeReliable(step, rng)
}

// validate rejects what no engine can price: a destination outside
// [0, P), a negative byte count, an offset vector not of length P, or an
// offset that is negative, NaN or infinite. The engines' event queues and
// the Phased injection merge need non-negative finite times and costs.
// bsplib reports the panic as the failing step's error.
func (c *Core) validate(step *comm.Step) {
	p := c.eng.Procs()
	for src, sends := range step.Sends {
		for i, m := range sends {
			if m.Dst < 0 || m.Dst >= p || m.Bytes < 0 {
				panic(fmt.Errorf("netsim: %s: malformed step: processor %d send %d has destination %d and %d bytes on %d processors",
					c.spec.name, src, i, m.Dst, m.Bytes, p))
			}
		}
	}
	if step.Offsets != nil && len(step.Offsets) != p {
		panic(fmt.Errorf("netsim: %s: malformed step: %d offsets on %d processors", c.spec.name, len(step.Offsets), p))
	}
	for src, off := range step.Offsets {
		if !(off >= 0) || math.IsInf(off, 1) {
			panic(fmt.Errorf("netsim: %s: malformed step: processor %d has offset %gus", c.spec.name, src, off))
		}
	}
}

// Fingerprint identifies the backend model and its calibrated constants
// for the phase memo cache.
func (c *Core) Fingerprint() uint64 { return c.spec.Fingerprint() }

// UsesRNG reports whether Route draws from its RNG argument.
func (c *Core) UsesRNG() bool { return c.spec.usesRNG }
