// Package machine assembles simulated experimental platforms: a netsim
// core (an engine plus its declarative identity), a compute model, and
// word-size/SIMD metadata. Machines are constructed by name through the
// registry (Build("cm5")); the concrete backends live in the
// machine/backends package, which registers them at init time.
package machine

import (
	"fmt"
	"math"
	"sync/atomic"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/netsim"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// builds counts machine constructions process-wide. Cache tests use the
// counter to prove that a fingerprint hit performs zero simulations: no
// simulation can run without first building a worker-private machine.
var builds atomic.Int64

// Builds returns the number of machine constructions since process start.
func Builds() int64 { return builds.Load() }

// Machine is one simulated experimental platform. Router is what every
// consumer prices steps through: the phase-memoizing wrapper over Net
// (phase.Wrap), possibly under further decorators. Net is the raw
// interconnect itself, which carries the memo identity and the fault
// controller.
type Machine struct {
	Name      string
	Router    comm.Router
	Net       *netsim.Core
	Compute   Compute
	WordBytes int
	// SIMD marks lockstep machines (the MasPar): every communication step
	// is implicitly aligned, word streams are priced as sequences of
	// synchronous word steps, and processors can never drift.
	SIMD bool
	// XNet prices a lockstep shift of bytes by dist positions on the
	// machine's SIMD nearest-neighbour grid (the MasPar's xnet); nil on
	// machines without one.
	XNet func(bytes, dist int) sim.Time
}

// P returns the number of processors.
func (m *Machine) P() int { return m.Router.Procs() }

// Assemble builds a Machine from a netsim core and a compute model: it
// validates the compute constants and wraps the core in the phase memo
// cache under the core's own Fingerprint/UsesRNG identity. Every machine
// in the system, registry-built or not, goes through here.
func Assemble(name string, net *netsim.Core, c Compute, wordBytes int, simd bool) (*Machine, error) {
	builds.Add(1)
	if err := Validate(c); err != nil {
		return nil, err
	}
	return &Machine{
		Name:      name,
		Router:    phase.Wrap(net, net.Fingerprint(), net.UsesRNG()),
		Net:       net,
		Compute:   c,
		WordBytes: wordBytes,
		SIMD:      simd,
	}, nil
}

// InjectFaults arms (with a plan) or disarms (with nil) fault injection on
// an already-assembled machine's interconnect, whatever decorators its
// Router carries. A machine without a Net (one not built by Assemble)
// rejects a non-nil plan.
func InjectFaults(m *Machine, p *faults.Plan) error {
	if m.Net == nil {
		if p == nil {
			return nil
		}
		return fmt.Errorf("machine: %q has no simulated interconnect to inject faults into", m.Name)
	}
	m.Net.SetFaultPlan(p)
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
