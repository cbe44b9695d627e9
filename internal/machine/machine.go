// Package machine assembles simulated experimental platforms: a router
// backend (from internal/router/* over the shared netsim core), a compute
// model, and word-size/SIMD metadata. Machines are constructed by name
// through the registry (Build("cm5")); the concrete backends live in the
// machine/backends package, which registers them at init time, so this
// package imports no router package.
package machine

import (
	"fmt"
	"math"
	"sync/atomic"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// builds counts machine constructions process-wide. Cache tests use the
// counter to prove that a fingerprint hit performs zero simulations: no
// simulation can run without first building a worker-private machine.
var builds atomic.Int64

// Builds returns the number of machine constructions since process start.
func Builds() int64 { return builds.Load() }

// XNetPricer is the capability of machines with a SIMD nearest-neighbour
// grid (the MasPar's xnet): pricing a lockstep shift of bytes by dist grid
// positions. Consumers (the vendor library's matmul intrinsic) depend on
// this interface rather than on a concrete router package.
type XNetPricer interface {
	XnetShift(bytes, dist int) sim.Time
}

// Machine is one simulated experimental platform. Router is always the
// phase-memoizing wrapper over the machine's raw interconnect simulator
// (phase.Wrap), so every consumer of the machine prices steps through the
// memo cache transparently.
type Machine struct {
	Name      string
	Router    comm.Router
	Compute   Compute
	WordBytes int
	// SIMD marks lockstep machines (the MasPar): every communication step
	// is implicitly aligned, word streams are priced as sequences of
	// synchronous word steps, and processors can never drift.
	SIMD bool
	// XNet exposes the xnet-grid capability when the machine's router has
	// one (the MasPar); nil otherwise.
	XNet XNetPricer
}

// P returns the number of processors.
func (m *Machine) P() int { return m.Router.Procs() }

// identified is what a raw router must expose beyond comm.Router to be
// assembled into a machine: the identity pair the phase memo cache keys on.
// Backends built on netsim.Core satisfy it automatically.
type identified interface {
	Fingerprint() uint64
	UsesRNG() bool
}

// Assemble builds a Machine from a raw router backend and a compute model:
// it validates the compute constants, wraps the router in the phase memo
// cache using the router's own Fingerprint/UsesRNG identity, and detects
// optional capabilities (XNetPricer) on the raw router. Every machine in
// the system, registry-built or not, goes through here.
func Assemble(name string, r comm.Router, c Compute, wordBytes int, simd bool) (*Machine, error) {
	builds.Add(1)
	if err := Validate(c); err != nil {
		return nil, err
	}
	id, ok := r.(identified)
	if !ok {
		return nil, fmt.Errorf("machine: router %q exposes no Fingerprint/UsesRNG identity", r.Name())
	}
	m := &Machine{
		Name:      name,
		Router:    phase.Wrap(r, id.Fingerprint(), id.UsesRNG()),
		Compute:   c,
		WordBytes: wordBytes,
		SIMD:      simd,
	}
	if xp, ok := r.(XNetPricer); ok {
		m.XNet = xp
	}
	return m, nil
}

// InjectFaults arms (with a plan) or disarms (with nil) fault injection on
// an already-assembled machine's interconnect. It walks the router's
// Unwrap chain to the netsim core, so it works on the memo-cache wrapper
// every machine carries. Machines whose router has no fault surface reject
// a non-nil plan.
func InjectFaults(m *Machine, p *faults.Plan) error {
	ctrl := faults.ControllerOf(m.Router)
	if ctrl == nil {
		if p == nil {
			return nil
		}
		return fmt.Errorf("machine: router %q has no fault-injection surface", m.Router.Name())
	}
	ctrl.SetFaultPlan(p)
	return nil
}

// ReferenceParams are the Table 1 parameters every analytic model
// prediction uses, as the paper's predictions used the parameters measured
// on the real machines. They were fitted on an earlier revision of the
// simulated machines and are now frozen inputs: changing one changes the
// goldens and needs a runstore.ModuleVersion bump. `qpexp -run table1,fig02
// -scale full` reports the values today's simulators measure.
type ReferenceParams struct {
	G, L       sim.Time // (MP-)BSP parameters, per word-size message
	Sigma, Ell sim.Time // MP-BPRAM parameters, per byte / per message
	// Tunb is the fitted E-BSP partial-permutation cost T_unb(P') =
	// A*P' + B*sqrt(P') + C; zero for machines where it was not fitted.
	TunbA, TunbB, TunbC float64
}

// Reference returns the measured reference parameters for machine name
// ("maspar", "gcel", "cm5").
func Reference(name string) (ReferenceParams, error) {
	switch name {
	case "maspar":
		return ReferenceParams{G: 36.8, L: 1236, Sigma: 109.6, Ell: 803,
			TunbA: 0.742, TunbB: 12.8, TunbC: 108}, nil
	case "gcel":
		return ReferenceParams{G: 4487, L: 4619, Sigma: 10.1, Ell: 7271}, nil
	case "cm5":
		return ReferenceParams{G: 9.5, L: 39, Sigma: 0.27, Ell: 76}, nil
	}
	return ReferenceParams{}, fmt.Errorf("machine: unknown machine %q", name)
}

// Tunb evaluates the fitted E-BSP unbalanced-communication cost for the
// given number of active processors.
func (rp ReferenceParams) Tunb(active int) sim.Time {
	return rp.TunbA*float64(active) + rp.TunbB*math.Sqrt(float64(active)) + rp.TunbC
}
