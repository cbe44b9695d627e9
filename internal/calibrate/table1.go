package calibrate

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/fit"
	"quantpar/internal/sim"
)

// HStyle selects which h-relation family calibrates g and L.
type HStyle int

const (
	// StyleOneToH uses 1-h relations (each processor sends at most one
	// message, destinations receive h) - the MasPar MP-BSP experiment.
	StyleOneToH HStyle = iota
	// StyleFullH uses random full h-relations (every processor sends and
	// receives h messages) - the GCel and CM-5 BSP experiment.
	StyleFullH
)

// Params is one machine's row of Table 1, all values in microseconds.
type Params struct {
	P     int
	G     float64 // BSP bandwidth parameter (per message of word size)
	L     float64 // BSP latency/synchronization parameter
	Sigma float64 // MP-BPRAM per-byte cost
	Ell   float64 // MP-BPRAM message startup
}

func (p Params) String() string {
	return fmt.Sprintf("P=%d g=%.1f L=%.0f sigma=%.2f ell=%.0f", p.P, p.G, p.L, p.Sigma, p.Ell)
}

// FitGL measures the h-relation family over the given h values and fits
// time = g*h + L.
func (s Sweeper) FitGL(style HStyle, hs []int, wordBytes, trials int, base *sim.RNG) (fit.Line, []Point, error) {
	gen := func(r comm.Router, h int, rng *sim.RNG) *comm.Step {
		switch style {
		case StyleOneToH:
			return OneToHRelation(r.Procs(), h, wordBytes, rng)
		default:
			return FullHRelation(r.Procs(), h, wordBytes, rng)
		}
	}
	pts, err := s.Curve(hs, gen, trials, base)
	if err != nil {
		return fit.Line{}, nil, err
	}
	xs, ys := XY(pts)
	line, err := fit.LeastSquaresLine(xs, ys)
	return line, pts, err
}

// FitSigmaEll measures full block permutations over the given message sizes
// (bytes) and fits time = sigma*m + ell.
func (s Sweeper) FitSigmaEll(sizes []int, trials int, base *sim.RNG) (fit.Line, []Point, error) {
	gen := func(r comm.Router, m int, rng *sim.RNG) *comm.Step {
		return BlockPermutation(r.Procs(), m, rng)
	}
	pts, err := s.Curve(sizes, gen, trials, base)
	if err != nil {
		return fit.Line{}, nil, err
	}
	xs, ys := XY(pts)
	line, err := fit.LeastSquaresLine(xs, ys)
	return line, pts, err
}

// FitTunb measures partial permutations over the given active-processor
// counts and fits the E-BSP unbalanced-communication cost
// T_unb(P') = A*P' + B*sqrt(P') + C (the Section 4.4.1 fit).
func (s Sweeper) FitTunb(actives []int, wordBytes, trials int, base *sim.RNG) (fit.SqrtQuadratic, []Point, error) {
	gen := func(r comm.Router, a int, rng *sim.RNG) *comm.Step {
		return PartialPermutation(r.Procs(), a, wordBytes, rng)
	}
	pts, err := s.Curve(actives, gen, trials, base)
	if err != nil {
		return fit.SqrtQuadratic{}, nil, err
	}
	xs, ys := XY(pts)
	sq, err := fit.LeastSquaresSqrtQuadratic(xs, ys)
	return sq, pts, err
}

// Spec describes how to calibrate one machine.
type Spec struct {
	Style     HStyle
	Hs        []int // h values for the g/L fit
	Sizes     []int // block sizes (bytes) for the sigma/ell fit
	WordBytes int
	Trials    int
}

// Extract runs the full Table 1 calibration for the sweeper's machine.
func (s Sweeper) Extract(spec Spec, base *sim.RNG) (Params, error) {
	probe, err := s.New()
	if err != nil {
		return Params{}, fmt.Errorf("calibrate: %w", err)
	}
	gl, _, err := s.FitGL(spec.Style, spec.Hs, spec.WordBytes, spec.Trials, base.Split(1))
	if err != nil {
		return Params{}, fmt.Errorf("calibrate: g/L fit: %w", err)
	}
	se, _, err := s.FitSigmaEll(spec.Sizes, spec.Trials, base.Split(2))
	if err != nil {
		return Params{}, fmt.Errorf("calibrate: sigma/ell fit: %w", err)
	}
	return Params{
		P:     probe.P(),
		G:     gl.Slope,
		L:     gl.Intercept,
		Sigma: se.Slope,
		Ell:   se.Intercept,
	}, nil
}
