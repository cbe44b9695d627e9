package calibrate

import (
	"slices"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/fit"
	"quantpar/internal/parsweep"
	"quantpar/internal/sim"
)

// resetFaults rewinds the router's fault clock (when it carries a fault
// plan) so each trial sees the fault schedule from simulated time zero.
// Trials land on worker-private routers in scheduling order, so without
// the rewind the clock position - and thus the link-kill windows a trial
// observes - would depend on the worker count.
func resetFaults(r comm.Router) {
	if ctrl := faults.ControllerOf(r); ctrl != nil {
		ctrl.ResetFaultClock()
	}
}

// Sweeper executes calibration measurements, fanning the independent
// (sweep-point x trial) grid across parsweep workers. Routers are stateful,
// so every worker owns a private instance built by New; generator closures
// receive the worker's router and must not capture a shared one for
// routing (reading immutable configuration such as Procs() is fine).
//
// Results are byte-identical for every worker count: trial t of point p
// always draws from the same Split-derived stream and results are
// collected in grid order. Workers <= 0 selects GOMAXPROCS; Workers == 1
// is the serial path (one router, inline loop, no goroutines).
type Sweeper struct {
	Workers int
	New     func() (comm.Router, error)
}

// Fixed wraps an already-constructed router as a serial Sweeper. It is
// how a caller holding one router (the facade's Calibrate, tests,
// benchmarks) measures on it.
func Fixed(r comm.Router) Sweeper {
	return Sweeper{Workers: 1, New: func() (comm.Router, error) { return r, nil }}
}

// Measure routes the step trials times (with fresh random patterns when
// gen is non-nil, regenerating per trial) and returns the summary of the
// elapsed times. Each trial draws its own RNG stream from base, so trial
// sets are reproducible and independent of worker count and scheduling.
func (s Sweeper) Measure(gen func(r comm.Router, rng *sim.RNG) *comm.Step, trials int, base *sim.RNG) (fit.Summary, error) {
	times, err := parsweep.Run(parsweep.Workers(s.Workers), trials, s.New,
		func(r comm.Router, t int) (float64, error) {
			resetFaults(r)
			rng := base.Split(uint64(t))
			return r.Route(gen(r, rng), rng).Elapsed, nil
		})
	if err != nil {
		return fit.Summary{}, err
	}
	return fit.Summarize(times), nil
}

// MeasureSteps routes a multi-step pattern (as produced by HHPermutation)
// once per trial, chaining finish skews between steps exactly as the
// superstep engine does, and returns the total elapsed time summary. The
// steps of one trial are inherently sequential (skews chain), so the trial
// is the unit of parallelism.
func (s Sweeper) MeasureSteps(gen func(r comm.Router, rng *sim.RNG) []*comm.Step, trials int, base *sim.RNG) (fit.Summary, error) {
	times, err := parsweep.Run(parsweep.Workers(s.Workers), trials, s.New,
		func(r comm.Router, t int) (float64, error) {
			resetFaults(r)
			rng := base.Split(uint64(t))
			return routeTrialSteps(r, gen(r, rng), rng), nil
		})
	if err != nil {
		return fit.Summary{}, err
	}
	return fit.Summarize(times), nil
}

// routeTrialSteps executes one trial's step sequence on r, carrying
// per-processor skews across unbarriered steps.
func routeTrialSteps(r comm.Router, steps []*comm.Step, rng *sim.RNG) float64 {
	total := sim.Time(0)
	var offsets []sim.Time
	for _, s := range steps {
		s.Offsets = offsets
		// The trial's stream deliberately chains across its steps:
		// rng is already the Split-derived per-trial stream, and a
		// trial is one sequential execution like on the real machine.
		res := r.Route(s, rng)
		if s.Barrier {
			total += res.Elapsed
			offsets = nil
		} else {
			// Carry per-processor skews into the next step; account
			// for the minimum progress as elapsed time.
			minF := res.Finish[0]
			for _, f := range res.Finish {
				if f < minF {
					minF = f
				}
			}
			total += minF
			offsets = make([]sim.Time, len(res.Finish))
			for i, f := range res.Finish {
				offsets[i] = f - minF
			}
		}
	}
	// Any residual skew must drain before the trial ends: it ends when its
	// last processor finishes.
	if len(offsets) > 0 {
		total += slices.Max(offsets)
	}
	return total
}

// Point is one x/y measurement with spread, as plotted in the paper's
// figures (mean with min/max error bars).
type Point struct {
	X    float64
	Mean float64
	Min  float64
	Max  float64
}

// Curve measures a family of patterns indexed by the xs values and returns
// one point per x. The whole (point x trial) grid is one parsweep batch,
// so long sweeps saturate the workers even when trial counts are small.
func (s Sweeper) Curve(xs []int, gen func(r comm.Router, x int, rng *sim.RNG) *comm.Step, trials int, base *sim.RNG) ([]Point, error) {
	times, err := parsweep.Run(parsweep.Workers(s.Workers), len(xs)*trials, s.New,
		func(r comm.Router, i int) (float64, error) {
			resetFaults(r)
			p, t := i/trials, i%trials
			// The stream nesting (per-point Split, then per-trial Split)
			// mirrors the historical serial path exactly, so curve values
			// are unchanged for any worker count.
			rng := base.Split(uint64(1000 + p)).Split(uint64(t))
			return r.Route(gen(r, xs[p], rng), rng).Elapsed, nil
		})
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(xs))
	for p, x := range xs {
		sum := fit.Summarize(times[p*trials : (p+1)*trials])
		pts[p] = Point{X: float64(x), Mean: sum.Mean, Min: sum.Min, Max: sum.Max}
	}
	return pts, nil
}

// XY unzips points into x and mean-y slices for fitting.
func XY(pts []Point) (xs, ys []float64) {
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Mean
	}
	return xs, ys
}
