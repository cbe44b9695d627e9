package backends

import (
	"fmt"

	"quantpar/internal/machine"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

// CM5Params are the physical constants of the CM-5 data network, in
// microseconds: a 4-ary fat tree with ample bisection bandwidth, programmed
// through a Split-C-like layer whose per-message CPU overheads (not the
// network) set the communication cost. The backend is netsim's
// active-message engine with an up-and-down latency function.
//
// The defaults reproduce the paper's Table 1 for the CM-5 (g about 9.1 us
// for 8-byte messages, L about 45 us via the dedicated control network,
// sigma about 0.27 us/byte, ell about 75 us) and the roughly 20%
// receiver-contention penalty of the unstaggered matrix multiplication
// (Fig 4).
type CM5Params struct {
	Procs int
	Arity int
	// Overheads are Split-C's per-message CPU costs of the send path and
	// the receive handler; messages larger than WordBytes take the bulk
	// transfer path.
	netsim.Overheads
	Window      int     // per-destination network capacity (LogP's L/g)
	THop        float64 // per-hop switch latency
	TByteNet    float64 // per-byte network streaming time
	Jitter      float64
	BarrierCost float64 // control-network barrier
}

// DefaultCM5Params returns the paper's 64-node CM-5 under Split-C (no
// vector units).
func DefaultCM5Params() CM5Params {
	return CM5Params{
		Procs: 64,
		Arity: 4,
		Overheads: netsim.Overheads{
			OSend:      5.0,
			ORecv:      2.7,
			CSendByte:  0.085,
			CRecvByte:  0.085,
			OSendBlock: 20,
			ORecvBlock: 14,
			WordBytes:  8,
		},
		Window:      16,
		THop:        0.25,
		TByteNet:    0.1,
		Jitter:      0.01,
		BarrierCost: 40,
	}
}

// CM5 builds a TMC CM-5 fat tree (Split-C, no vector units). Its Sparc
// compute model includes the measured local-matmul rate curve of Section
// 4.1.1 (the nominal alpha is 2/(7.0 Mflops), the paper's alpha).
func CM5(p CM5Params) (*machine.Machine, error) {
	tree, err := topology.NewFatTree(p.Procs, p.Arity)
	if err != nil {
		return nil, fmt.Errorf("machine: cm5: %w", err)
	}
	eng, err := netsim.NewActive(netsim.ActiveConfig{
		Procs:     p.Procs,
		Overheads: p.Overheads,
		Window:    p.Window,
		// The contention-free transit time of one message: up-and-down
		// hop latency plus byte streaming. The fat tree's wide upper
		// levels make pattern-dependent transit contention negligible on
		// this machine (Section 5.3 of the paper), so transit is priced
		// per message only.
		Latency: func(src, dst, bytes int) sim.Time {
			return sim.Time(tree.Hops(src, dst))*p.THop + sim.Time(bytes)*p.TByteNet
		},
		Jitter:      p.Jitter,
		BarrierCost: p.BarrierCost,
	})
	if err != nil {
		return nil, fmt.Errorf("machine: cm5: %w", err)
	}
	spec := netsim.NewSpec("cm5-fattree").
		Int(p.Procs, p.Arity).
		F64(p.OSend, p.ORecv, p.CSendByte, p.CRecvByte, p.OSendBlock, p.ORecvBlock).
		Int(p.WordBytes, p.Window).
		F64(p.THop, p.TByteNet).
		Jitter(p.Jitter).
		F64(p.BarrierCost)
	c := &machine.CachedCompute{
		BasicCompute: machine.BasicCompute{AlphaC: 0.286, Beta: 0.12, Gamma: 0.42, MergeC: 0.34, OpC: 0.09, CallOverh: 4},
		RateDims:     []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		RateMflops:   []float64{2.0, 3.2, 4.6, 6.5, 7.0, 7.3, 6.9, 5.2, 4.8},
	}
	return machine.Assemble("TMC CM-5", netsim.NewCore(spec, eng), c, 8, false)
}
