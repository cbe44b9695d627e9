package core

import (
	"fmt"

	"quantpar/internal/sim"
)

// AlgoCosts carries the machine-specific local-computation coefficients the
// predictions need, mirroring how the paper determined them empirically on
// each platform (Sections 4.1.1 and 4.2.1).
type AlgoCosts struct {
	Alpha     sim.Time // compound flop (one addition + one multiplication)
	BetaSum   sim.Time // per-element cost of the final matmul summation phase
	MergeC    sim.Time // per merged key (the "alpha" of the bitonic formulas)
	SortBeta  sim.Time // radix sort per-bucket coefficient
	SortGamma sim.Time // radix sort per-key coefficient
	OpC       sim.Time // generic word operation (bucket scan etc.)
	WordBytes int
}

// LocalSort returns the paper's radix sort cost
// T = (b/r) * (beta*2^r + gamma*n) for 32-bit keys sorted with 8-bit
// digits, the configuration every platform used.
func (a AlgoCosts) LocalSort(n int) sim.Time {
	const b, r = 32, 8
	passes := sim.Time(b / r)
	return passes * (a.SortBeta*sim.Time(1<<r) + a.SortGamma*sim.Time(n))
}

// --- Matrix multiplication (Section 4.1) ---

// MatMulShape validates and decomposes the matmul configuration: P = q^3
// processors multiplying N x N matrices with q | N.
func MatMulShape(n, p int) (q int, err error) {
	q, err = CubeRootP(p)
	if err != nil {
		return 0, err
	}
	if n%(q*q) != 0 {
		return 0, fmt.Errorf("core: matmul needs q^2=%d to divide N=%d", q*q, n)
	}
	return q, nil
}

// PredictMatMulBSP returns the paper's T_bsp-mm =
// alpha*N^3/P + beta*N^2/q^2 + 3*g*N^2/q^2 + 2*L.
func PredictMatMulBSP(b BSP, c AlgoCosts, n int) (sim.Time, error) {
	q, err := MatMulShape(n, b.P)
	if err != nil {
		return 0, err
	}
	n3 := sim.Time(n) * sim.Time(n) * sim.Time(n)
	blk := sim.Time(n) * sim.Time(n) / sim.Time(q*q)
	return c.Alpha*n3/sim.Time(b.P) + c.BetaSum*blk + 3*b.G*blk + 2*b.L, nil
}

// PredictMatMulMPBSP returns T_mp-bsp-mm =
// alpha*N^3/P + beta*N^2/q^2 + 3*(g+L)*N^2/q^2.
func PredictMatMulMPBSP(m MPBSP, c AlgoCosts, n int) (sim.Time, error) {
	q, err := MatMulShape(n, m.P)
	if err != nil {
		return 0, err
	}
	n3 := sim.Time(n) * sim.Time(n) * sim.Time(n)
	blk := sim.Time(n) * sim.Time(n) / sim.Time(q*q)
	return c.Alpha*n3/sim.Time(m.P) + c.BetaSum*blk + 3*(m.G+m.L)*blk, nil
}

// PredictMatMulBPRAM returns T_bpram-mm =
// alpha*N^3/P + beta*N^2/q^2 + 3*q*(sigma*w*N^2/P + ell).
func PredictMatMulBPRAM(m MPBPRAM, c AlgoCosts, n int) (sim.Time, error) {
	q, err := MatMulShape(n, m.P)
	if err != nil {
		return 0, err
	}
	n3 := sim.Time(n) * sim.Time(n) * sim.Time(n)
	blk := sim.Time(n) * sim.Time(n) / sim.Time(q*q)
	comm := 3 * sim.Time(q) * m.Transfer(c.WordBytes*n*n/m.P)
	return c.Alpha*n3/sim.Time(m.P) + c.BetaSum*blk + comm, nil
}

// --- Bitonic sort (Section 4.2) ---

// PredictBitonicBSP returns T_bsp-bitonic for n total keys on p processors:
// T_local-sort + sum_{d=1..log p} d*(mergeC*M + g*M + L), M = n/p.
func PredictBitonicBSP(b BSP, c AlgoCosts, n int) sim.Time {
	m := n / b.P
	logP := IntLog2(b.P)
	stages := sim.Time(logP) * sim.Time(logP+1) / 2
	return c.LocalSort(m) + stages*(c.MergeC*sim.Time(m)+b.G*sim.Time(m)+b.L)
}

// PredictBitonicMPBSP returns T_mp-bsp-bitonic:
// T_local-sort + 0.5*logP*(logP+1)*(mergeC*M + (g+L)*M).
func PredictBitonicMPBSP(mp MPBSP, c AlgoCosts, n int) sim.Time {
	m := n / mp.P
	logP := IntLog2(mp.P)
	stages := sim.Time(logP) * sim.Time(logP+1) / 2
	return c.LocalSort(m) + stages*(c.MergeC*sim.Time(m)+(mp.G+mp.L)*sim.Time(m))
}

// PredictBitonicBPRAM returns T_bpram-bitonic:
// T_local-sort + 0.5*logP*(logP+1)*(mergeC*M + sigma*w*M + ell).
func PredictBitonicBPRAM(mp MPBPRAM, c AlgoCosts, n int) sim.Time {
	m := n / mp.P
	logP := IntLog2(mp.P)
	stages := sim.Time(logP) * sim.Time(logP+1) / 2
	return c.LocalSort(m) + stages*(c.MergeC*sim.Time(m)+mp.Transfer(c.WordBytes*m))
}

// --- Sample sort (Section 4.3, MP-BPRAM block variant) ---

// PredictSampleSortBPRAM returns the block-transfer sample sort cost for n
// total keys, oversampling ratio s, on p = perfect-square processors:
// splitter phase (bitonic on p*s samples + splitter broadcast as a p x p
// transpose), send phase (local sort, bucketing, multi-scan, block routing
// to buckets) and final bucket sort. mMax is the expected maximum bucket
// size n/p * (1 + imbalance); the paper uses the measured maximum.
func PredictSampleSortBPRAM(mp MPBPRAM, c AlgoCosts, n, s int, mMax int) (sim.Time, error) {
	p := mp.P
	sq, err := SqrtP(p)
	if err != nil {
		return 0, err
	}
	m := n / p
	w := c.WordBytes

	// Phase 1: sort p*s samples with bitonic, then broadcast the p-1
	// splitters via the transpose scheme: 2*sqrt(P) block messages of
	// sqrt(P) words each.
	splitter := PredictBitonicBPRAM(mp, c, p*s) +
		2*sim.Time(sq)*mp.Transfer(w*sq)

	// Phase 2: local sort, bucket determination (Theta(M+P) time),
	// multi-scan (4*sqrt(P) block messages), block routing to buckets
	// (Section 4.3.1): 4*sqrt(P)*(4*sigma*w*N/P^1.5 + ell).
	scan := 4 * sim.Time(sq) * mp.Transfer(w*sq)
	route := 4 * sim.Time(sq) * mp.Transfer(4*w*n/(p*sq))
	send := c.LocalSort(m) + c.OpC*sim.Time(m+p) + scan + route

	// Phase 3: sort buckets locally.
	buckets := c.LocalSort(mMax)
	return splitter + send + buckets, nil
}

// --- All pairs shortest path (Section 4.4) ---

// APSPShape validates the APSP configuration: P a perfect square, sqrt(P)
// dividing N.
func APSPShape(n, p int) (sq int, err error) {
	sq, err = SqrtP(p)
	if err != nil {
		return 0, err
	}
	if n%sq != 0 {
		return 0, fmt.Errorf("core: apsp needs sqrt(P)=%d to divide N=%d", sq, n)
	}
	return sq, nil
}

// apspBcastBSP returns T_bcast under plain BSP.
func apspBcastBSP(b BSP, n, sq int) sim.Time {
	m := n / sq
	if m >= sq {
		return 2 * (b.G*sim.Time(m) + b.L)
	}
	extra := sim.Time(IntLog2(sq / m))
	return 2*(b.G*sim.Time(m)+b.L) + (b.G+b.L)*extra
}

// PredictAPSPBSP returns T_bsp-apsp = alpha*N^3/P + 2*N*T_bcast.
func PredictAPSPBSP(b BSP, c AlgoCosts, n int) (sim.Time, error) {
	sq, err := APSPShape(n, b.P)
	if err != nil {
		return 0, err
	}
	n3 := sim.Time(n) * sim.Time(n) * sim.Time(n)
	return c.Alpha*n3/sim.Time(b.P) + 2*sim.Time(n)*apspBcastBSP(b, n, sq), nil
}

// PredictAPSPMPBSP returns the MP-BSP variant: T_bcast = 2*(g+L)*M when
// M >= sqrt(P), else (g+L)*(2*M + log(sqrt(P)/M)).
func PredictAPSPMPBSP(mp MPBSP, c AlgoCosts, n int) (sim.Time, error) {
	sq, err := APSPShape(n, mp.P)
	if err != nil {
		return 0, err
	}
	m := n / sq
	var bcast sim.Time
	if m >= sq {
		bcast = 2 * (mp.G + mp.L) * sim.Time(m)
	} else {
		bcast = (mp.G + mp.L) * (2*sim.Time(m) + sim.Time(IntLog2(sq/m)))
	}
	n3 := sim.Time(n) * sim.Time(n) * sim.Time(n)
	return c.Alpha*n3/sim.Time(mp.P) + 2*sim.Time(n)*bcast, nil
}

// PredictAPSPEBSP returns the E-BSP prediction of Section 4.4.1: the
// scatter phase runs with sqrt(P) active processors per step and the
// broadcast phase with all P, each step priced by T_unb.
func PredictAPSPEBSP(e EBSP, c AlgoCosts, n int) (sim.Time, error) {
	sq, err := APSPShape(n, e.P)
	if err != nil {
		return 0, err
	}
	m := n / sq
	bcast := sim.Time(m)*e.UnbalancedStep(sq) + sim.Time(m)*e.UnbalancedStep(e.P)
	if m < sq {
		steps := IntLog2(sq / m)
		for i := 0; i < steps; i++ {
			bcast += e.UnbalancedStep((1 << uint(i)) * n)
		}
	}
	n3 := sim.Time(n) * sim.Time(n) * sim.Time(n)
	return c.Alpha*n3/sim.Time(e.P) + 2*sim.Time(n)*bcast, nil
}
