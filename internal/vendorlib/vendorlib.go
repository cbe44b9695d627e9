// Package vendorlib provides behavioural models of the two closed-source
// vendor routines the paper compares against in Section 7:
//
//   - the MasPar `matmul` intrinsic, modelled as Cannon's algorithm on the
//     xnet nearest-neighbour grid with a hand-microcoded local kernel at
//     about 82% of the PE peak (61.7 Mflops at N = 700 on 1K PEs);
//   - the CMSSL `gen_matrix_mult` routine on the CM-5, modelled as a
//     broadcast-based (SUMMA-style) algorithm with a plain Fortran local
//     kernel and per-panel short-message broadcasts, which caps out around
//     150 Mflops without the vector units (and about 1 Gflop with them).
//
// The real routines are unavailable, so these models substitute calibrated
// cost functions with the documented performance envelopes; they price a
// multiply and compute no product.
package vendorlib

import (
	"fmt"

	"quantpar/internal/sim"
)

// MasParMatMulTime returns the simulated execution time of the MasPar
// matmul intrinsic for an N x N single-precision multiply on a full
// array of procs PEs whose xnet shift of bytes over a signed distance is
// priced by xnet (machine.Machine.XNet), using Cannon's algorithm on a
// sqrt(P) x sqrt(P) grid.
func MasParMatMulTime(procs int, xnet func(bytes, dist int) sim.Time, n int) (sim.Time, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vendorlib: invalid dimension %d", n)
	}
	if procs <= 0 || xnet == nil {
		return 0, fmt.Errorf("vendorlib: matmul intrinsic needs an xnet-capable machine")
	}
	side := 1
	for (side+1)*(side+1) <= procs {
		side++
	}
	b := float64(n) / float64(side) // block edge per PE (may be fractional)
	const w = 4                     // single precision
	blockBytes := int(b*b*w + 0.5)

	// Intrinsic kernel: ~82% of the 27.3 us/compound PE peak.
	const alphaIntrinsic = 33.0 // us per compound op

	// Initial skew: up to side-1 unit xnet shifts for each of A and B.
	skew := 2 * sim.Time(side-1) * xnet(blockBytes, 1)
	// Steady state: side steps of (local multiply + two unit shifts).
	perStep := sim.Time(b*b*b)*alphaIntrinsic + 2*xnet(blockBytes, 1)
	return skew + sim.Time(side)*perStep, nil
}

// CMSSLConfig tunes the gen_matrix_mult model.
type CMSSLConfig struct {
	Procs int
	// VectorUnits switches to the vector-unit compilation the paper
	// mentions (about 1016 Mflops at N=512).
	VectorUnits bool
}

// DefaultCMSSL returns the configuration of the paper's 64-node CM-5.
func DefaultCMSSL() CMSSLConfig { return CMSSLConfig{Procs: 64} }

// CMSSLGenMatrixMultTime returns the simulated execution time of CMSSL's
// gen_matrix_mult for an N x N double-precision multiply.
func CMSSLGenMatrixMultTime(cfg CMSSLConfig, n int) (sim.Time, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vendorlib: invalid dimension %d", n)
	}
	if cfg.Procs <= 0 {
		return 0, fmt.Errorf("vendorlib: invalid processor count %d", cfg.Procs)
	}
	// Local rate: plain compiled kernel, no assembly inner loop.
	rate := 3.5 // Mflops per node
	commPerN2 := 2.2 * 64 / float64(cfg.Procs)
	if cfg.VectorUnits {
		// Vector units lift the local kernel and use wider transfers.
		rate = 28
		commPerN2 = 0.435 * 64 / float64(cfg.Procs)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	compute := flops / (float64(cfg.Procs) * rate) // us
	comm := commPerN2 * float64(n) * float64(n)
	return sim.Time(compute + comm), nil
}

// Mflops converts an N x N multiply time to the paper's Mflops convention.
func Mflops(n int, t sim.Time) float64 {
	return 2 * float64(n) * float64(n) * float64(n) / t
}
