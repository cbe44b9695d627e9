// Package experiments contains one runner per table and figure of the
// paper's evaluation (Sections 3, 5, 6 and 7). Each runner executes the
// relevant workload on the simulated machines, computes the corresponding
// analytic predictions, and returns measured-versus-predicted series
// together with shape checks: assertions that the paper's qualitative
// findings (who wins, by roughly what factor, in which direction a model
// errs) hold in this reproduction.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"quantpar/internal/calibrate"
	"quantpar/internal/comm"
	"quantpar/internal/core"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends" // registers the platform factories
	"quantpar/internal/parsweep"
	"quantpar/internal/sim"
)

// The runners construct worker-private platforms through the machine
// registry; these wrappers pin the registry names in one place.
func newMasPar() (*machine.Machine, error)  { return machine.Build("maspar") }
func newGCel() (*machine.Machine, error)    { return machine.Build("gcel") }
func newCM5() (*machine.Machine, error)     { return machine.Build("cm5") }
func newCluster() (*machine.Machine, error) { return machine.Build("cluster") }

// Scale selects sweep sizes: Quick keeps wall-clock time test-friendly;
// Full covers the paper's ranges.
type Scale int

const (
	Quick Scale = iota
	Full
)

// Context configures an experiment run.
type Context struct {
	Scale  Scale
	Trials int // repetitions of stochastic measurements
	Seed   uint64
	// Workers bounds the parsweep fan-out of the runner's independent
	// simulation tasks: <= 0 selects GOMAXPROCS, 1 is the serial path.
	// Results are byte-identical for every value (each task derives its
	// RNG stream from the task index and runs on a worker-private
	// machine), so Workers trades wall-clock time only.
	Workers int
	// Faults, when non-nil, arms every worker-private machine the context
	// factories build with a fault plan derived from the spec (each worker
	// gets its own plan instance; plans carry a mutable clock). The figure
	// outputs then describe a degraded machine, so runs with Faults set
	// must not be compared against - or written into - the golden store.
	Faults *faults.Spec

	// stats aggregates router counters across the run. The registry
	// installs a fresh collector around every Experiment.Run invocation;
	// runners never touch it directly.
	stats *statsCollector
}

// DefaultContext returns a Quick context with a fixed seed. Eight trials
// per point is the minimum that keeps the deliberately noisy MasPar 1-h
// relation fits (Fig 1's error bars) stable.
func DefaultContext() *Context {
	return &Context{Scale: Quick, Trials: 8, Seed: 1996}
}

func (c *Context) trials(quick, full int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Scale == Full {
		return full
	}
	return quick
}

func (c *Context) sweep(quick, full []int) []int {
	if c.Scale == Full {
		return full
	}
	return quick
}

// Check is one shape assertion.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Outcome is an experiment's result.
type Outcome struct {
	ID     string
	Title  string
	Series []core.Series
	Extra  []string
	Checks []Check
	// Stats aggregates the router counters of every communication step the
	// run priced: the mechanism-level footprint (messages, bytes, stalls,
	// buffer overflows, link loads) behind the series. Aggregation is
	// commutative (sums and maxima), so the value is identical for every
	// worker count.
	Stats comm.Stats
}

// Passed reports whether all checks passed.
func (o *Outcome) Passed() bool {
	for _, c := range o.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func (o *Outcome) check(name string, pass bool, format string, args ...any) {
	o.Checks = append(o.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

func (o *Outcome) extra(format string, args ...any) {
	o.Extra = append(o.Extra, fmt.Sprintf(format, args...))
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Outcome, error)
}

var registry []Experiment

func register(id, title string, run func(*Context) (*Outcome, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: instrument(run)})
}

// instrument wraps a runner so that every registered experiment aggregates
// router counters into its outcome: a fresh collector is installed on a
// private copy of the context, and the commutative total lands in
// Outcome.Stats after the run.
func instrument(run func(*Context) (*Outcome, error)) func(*Context) (*Outcome, error) {
	return func(ctx *Context) (*Outcome, error) {
		c := *ctx
		c.stats = &statsCollector{}
		o, err := run(&c)
		if err != nil {
			return nil, err
		}
		o.Stats = c.stats.snapshot()
		return o, nil
	}
}

// All returns every registered experiment, ordered by identifier.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
}

// IDs returns every registered identifier, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// Resolve returns the experiment named by a user-supplied identifier,
// forgiving case and zero-padding: "Fig4", "FIG04" and "fig4" all resolve
// to "fig04". Unknown identifiers error with the full valid list.
func Resolve(id string) (Experiment, error) {
	norm := strings.ToLower(strings.TrimSpace(id))
	if e, err := ByID(norm); err == nil {
		return e, nil
	}
	// Re-pad a trailing number: fig4 and fig004 both resolve to fig04,
	// table01 to table1. Canonical identifiers win above, so this only
	// runs for non-canonical paddings.
	head := strings.TrimRight(norm, "0123456789")
	if num := strings.TrimLeft(norm[len(head):], "0"); len(norm) > len(head) {
		if num == "" {
			num = "0"
		}
		for _, cand := range []string{head + num, head + "0" + num} {
			if e, err := ByID(cand); err == nil {
				return e, nil
			}
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
}

// --- shared machinery ---

// costsOf derives the algorithm cost coefficients from a machine's compute
// model, mirroring the paper's empirical coefficient fits.
func costsOf(m *machine.Machine) core.AlgoCosts {
	beta, gamma := m.Compute.SortCoeffs()
	const probe = 1 << 16
	mergeC := (m.Compute.MergeTime(probe) - m.Compute.MergeTime(0)) / probe
	opC := m.Compute.OpTime(probe) / probe
	return core.AlgoCosts{
		Alpha:     m.Compute.Alpha(),
		BetaSum:   opC,
		MergeC:    mergeC,
		SortBeta:  beta,
		SortGamma: gamma,
		OpC:       opC,
		WordBytes: m.WordBytes,
	}
}

// models bundles the analytic model instances for one machine and a given
// logical processor count.
type models struct {
	bsp   core.BSP
	mpbsp core.MPBSP
	bpram core.MPBPRAM
	ebsp  core.EBSP
	costs core.AlgoCosts
	ref   machine.ReferenceParams
}

func modelsFor(m *machine.Machine, key string, p int) (models, error) {
	ref, err := machine.Reference(key)
	if err != nil {
		return models{}, err
	}
	md := models{
		bsp:   core.BSP{P: p, G: ref.G, L: ref.L},
		mpbsp: core.MPBSP{P: p, G: ref.G, L: ref.L},
		bpram: core.MPBPRAM{P: p, Sigma: ref.Sigma, Ell: ref.Ell},
		costs: costsOf(m),
		ref:   ref,
	}
	md.ebsp = core.EBSP{MPBSP: md.mpbsp, Tunb: func(active int) sim.Time { return ref.Tunb(active) }}
	return md, nil
}

// --- parallel sweep plumbing ---
//
// Runners fan their (sweep-point x trial) grids across parsweep workers.
// Machines and routers are stateful, so tasks never touch a shared
// instance: each worker constructs its own platform through one of the
// factories below. A runner builds one more instance of its platform for
// read-only uses (model parameters, processor counts).

// machineFactory builds one worker-private platform instance.
type machineFactory func() (*machine.Machine, error)

// statsCollector accumulates the router counters of a run. comm.Stats.Add
// is commutative and associative (sums and maxima), so the aggregate is
// independent of the order concurrent workers land their contributions:
// the collected value is identical for every worker count.
type statsCollector struct {
	mu sync.Mutex
	s  comm.Stats
}

func (c *statsCollector) add(s comm.Stats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.Add(s)
	c.mu.Unlock()
}

func (c *statsCollector) snapshot() comm.Stats {
	if c == nil {
		return comm.Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// countingRouter decorates a worker-private router so that every priced
// step's counters land in the run's collector. Pricing itself is untouched.
type countingRouter struct {
	comm.Router
	sink *statsCollector
}

func (c countingRouter) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	res := c.Router.Route(step, rng)
	c.sink.add(res.Stats)
	return res
}

// worker builds one worker-private machine with mk, arms it with its own
// instance of the context's fault plan (if any), and routes its steps
// through the counting layer that feeds the run's stats collector.
func (c *Context) worker(mk machineFactory) (*machine.Machine, error) {
	m, err := mk()
	if err != nil {
		return nil, err
	}
	if c.Faults != nil {
		plan, err := faults.NewPlan(*c.Faults)
		if err != nil {
			return nil, err
		}
		if err := machine.InjectFaults(m, plan); err != nil {
			return nil, err
		}
	}
	m.Router = countingRouter{Router: m.Router, sink: c.stats}
	return m, nil
}

// sweeper adapts a machine factory to a calibration sweeper honouring the
// context's worker budget.
func (c *Context) sweeper(mk machineFactory) calibrate.Sweeper {
	return calibrate.Sweeper{Workers: c.Workers, New: func() (*machine.Machine, error) { return c.worker(mk) }}
}

// sweepGrid runs task for each of runs runs at every value, on
// worker-private machines built by mk, as one point-major grid: the result
// of run j at vals[i] is at index i*runs+j, independent of scheduling.
// Runners submit all of their independent algorithm runs as one grid with
// vals ascending: parsweep's workers claim the last task first, so the
// longest runs start first and the short ones fill the tail instead of one
// long run finishing while the other workers idle.
func sweepGrid[T any](ctx *Context, mk machineFactory, vals []int, runs int, task func(m *machine.Machine, v, run int) (T, error)) ([]T, error) {
	return parsweep.Run(parsweep.Workers(ctx.Workers), len(vals)*runs,
		func() (*machine.Machine, error) { return ctx.worker(mk) },
		func(m *machine.Machine, i int) (T, error) { return task(m, vals[i/runs], i%runs) })
}

// splitGrid appends a point-major grid of measurements (run j at vals[i]
// at index i*len(series)+j) to one series per run, pairing each point with
// predict(vals[i]).
func splitGrid(series []core.Series, vals []int, meas []float64, predict func(v int) (float64, error)) error {
	for i, v := range vals {
		pred, err := predict(v)
		if err != nil {
			return err
		}
		for j := range series {
			s := &series[j]
			s.Xs = append(s.Xs, float64(v))
			s.Measured = append(s.Measured, meas[i*len(series)+j])
			s.Predicted = append(s.Predicted, pred)
		}
	}
	return nil
}

func within(err, bound float64) bool {
	if err < 0 {
		err = -err
	}
	return err <= bound
}
