package backends

import (
	"fmt"

	"quantpar/internal/machine"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

// MasParParams are the physical constants of the MasPar MP-1 global
// router, in microseconds: a circuit-switched expanded delta network with
// greedy routing in which every cluster of 16 processor elements (PEs)
// shares a single router channel. The backend is netsim's SIMD
// circuit-wave engine over the butterfly of cluster ports.
//
// One set of constants reproduces the paper's observations on this
// machine:
//
//   - 1-h relations cost roughly g*h + L with large variance when several
//     destinations share a cluster channel (Fig 1);
//   - partial permutations are strongly sublinear in the number of active
//     PEs (Fig 2, the T_unb curve of the E-BSP variant);
//   - single-bit "cube" permutations, the pattern of bitonic sort, route
//     conflict-free through the butterfly and come out about twice as cheap
//     as random permutations (Fig 5/10);
//   - long messages stream bit-serially through held circuits, giving the
//     large per-byte cost sigma of Table 1 while amortising the per-step
//     overhead (the MP-BPRAM regime).
type MasParParams struct {
	PEs         int     // number of processor elements
	ClusterSize int     // PEs per router channel
	LFixed      float64 // per-step ACU decode + synchronization overhead
	TCircuit    float64 // per-wave circuit-establishment time
	TLaunch     float64 // per-wave message launch overhead on the channel
	TByte       float64 // per-byte streaming time through a held circuit
	// Block-transfer constants. Messages larger than BlockThreshold bytes
	// are priced with the asynchronous streaming model: long transfers
	// hold circuits while other PEs keep retrying, so the base time is set
	// by per-channel byte serialization (16 PEs share a channel). Circuit
	// conflicts in the delta stages add a surcharge proportional to how
	// many extra establishment waves the cluster-level pattern needs:
	// random permutations pay it in full (it is folded into the fitted
	// sigma of Table 1), while XOR/cube patterns - bitonic's exchanges -
	// establish conflict-free and escape it, which is why the MP-BPRAM
	// model still overestimates bitonic sort on this machine (Fig 10)
	// while matching the matmul within a few percent (Fig 8).
	BlockThreshold int
	TByteBlock     float64 // per byte through a cluster channel, conflict-free
	TBlockSetup    float64 // extra per-message setup on the channel
	BlockStall     float64 // surcharge weight per relative extra wave
	// XnetHop and XnetByte price the xnet nearest-neighbour grid used by
	// the vendor matmul intrinsic: a shift by d positions of b bytes costs
	// XnetHop*d + XnetByte*b with no conflicts.
	XnetHop  float64
	XnetByte float64
}

// DefaultMasParParams returns the paper's 1024-PE MP-1, calibrated so that
// the microbenchmarks of Section 3.1 reproduce Table 1 (g about 32 us,
// L about 1400 us, sigma about 107 us/byte, ell about 630 us) and the
// roughly 2x discount of cube permutations.
func DefaultMasParParams() MasParParams {
	return MasParParams{
		PEs:            1024,
		ClusterSize:    16,
		LFixed:         100,
		TCircuit:       9.5,
		TLaunch:        7.3,
		TByte:          2.3,
		BlockThreshold: 8,
		TByteBlock:     5.0,
		TBlockSetup:    16,
		BlockStall:     0.2,
		XnetHop:        1.2,
		XnetByte:       0.45,
	}
}

// MasPar builds a MasPar MP-1 SIMD machine. The PE count must be a
// power-of-two multiple of the cluster size. A 1K MP-1 peaks at 75 Mflops
// single precision, i.e. 27.3 us per compound (add+multiply) PE operation;
// the register-blocked local multiply of Section 4.1.1 runs at about 80%
// of that. The machine's XNet prices a lockstep xnet shift, in which every
// active PE sends bytes to the PE dist grid positions away in one of the
// eight directions; xnet transfers are conflict-free by construction.
func MasPar(p MasParParams) (*machine.Machine, error) {
	if p.PEs <= 0 || p.ClusterSize <= 0 || p.PEs%p.ClusterSize != 0 {
		return nil, fmt.Errorf("machine: maspar: invalid PE/cluster geometry %d/%d", p.PEs, p.ClusterSize)
	}
	bf, err := topology.NewButterfly(p.PEs / p.ClusterSize)
	if err != nil {
		return nil, fmt.Errorf("machine: maspar: %w", err)
	}
	eng, err := netsim.NewWave(netsim.WaveConfig{
		PEs:            p.PEs,
		ClusterSize:    p.ClusterSize,
		LFixed:         p.LFixed,
		TCircuit:       p.TCircuit,
		TLaunch:        p.TLaunch,
		TByte:          p.TByte,
		BlockThreshold: p.BlockThreshold,
		TByteBlock:     p.TByteBlock,
		TBlockSetup:    p.TBlockSetup,
		BlockStall:     p.BlockStall,
		Path:           bf.Path,
		NumLinks:       bf.NumLinks(),
	})
	if err != nil {
		return nil, fmt.Errorf("machine: maspar: %w", err)
	}
	spec := netsim.NewSpec("maspar-mp1").
		Int(p.PEs, p.ClusterSize).
		F64(p.LFixed, p.TCircuit, p.TLaunch, p.TByte).
		Int(p.BlockThreshold).
		F64(p.TByteBlock, p.TBlockSetup, p.BlockStall, p.XnetHop, p.XnetByte)
	c := &machine.BasicCompute{AlphaC: 34, Beta: 2.0, Gamma: 11, MergeC: 7, OpC: 2.5, CallOverh: 60}
	m, err := machine.Assemble("MasPar MP-1", netsim.NewCore(spec, eng), c, 4, true)
	if err != nil {
		return nil, err
	}
	m.XNet = func(bytes, dist int) sim.Time {
		if dist < 0 {
			dist = -dist
		}
		return p.LFixed/4 + sim.Time(dist)*p.XnetHop + sim.Time(bytes)*p.XnetByte
	}
	return m, nil
}
