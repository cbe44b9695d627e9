package backends

import (
	"fmt"

	"quantpar/internal/machine"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

// ClusterParams are the physical constants of the "modern cluster"
// backend: a k-ary n-cube of commodity nodes driven by an MPI-like layer.
// Constants are in microseconds and bytes, three orders of magnitude below
// the paper's 1996 machines - which is exactly the point of carrying this
// backend: the cost *structure* (per-message overheads, finite windows,
// barrier costs) survives even though every constant moved.
type ClusterParams struct {
	Ary  int // nodes per torus dimension
	Dims int // torus dimensions; node count is Ary^Dims

	// Overheads are the MPI layer's per-message send and receive/matching
	// costs and per-byte copies; WordBytes is the eager/rendezvous
	// threshold, above which the rendezvous path's overheads apply.
	netsim.Overheads
	Window      int     // per-destination in-flight cap (NIC queue depth)
	THop        float64 // per-hop switch latency
	TByteNet    float64 // per-byte wire time
	Jitter      float64 // OS noise, relative
	BarrierCost float64 // dissemination barrier
}

// DefaultClusterParams returns constants for a 64-node (4-ary 3-cube)
// cluster: ~1 us MPI overheads, multi-GB/s copies, 50 ns switch hops.
func DefaultClusterParams() ClusterParams {
	return ClusterParams{
		Ary:  4,
		Dims: 3,

		Overheads: netsim.Overheads{
			OSend:      1.1,
			ORecv:      0.9,
			CSendByte:  0.0004,
			CRecvByte:  0.0004,
			OSendBlock: 2.5,
			ORecvBlock: 2.0,
			WordBytes:  64,
		},
		Window:      32,
		THop:        0.05,
		TByteNet:    0.0001,
		Jitter:      0.005,
		BarrierCost: 6.0,
	}
}

// Cluster builds a modern-cluster machine; DefaultClusterParams() gives
// the 64-node default. Like every backend, its interconnect is assembled
// inline from netsim parts (the active-message engine, a torus-latency
// closure, and a declarative Spec) plus the params struct. Each node is a
// ~1 Gflops core, so alpha is 2 ns per compound flop.
func Cluster(p ClusterParams) (*machine.Machine, error) {
	torus, err := topology.NewTorus(p.Ary, p.Dims)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	// The latency closure reads the core's active fault plan to route
	// around killed links; bfs is the route-around search scratch.
	var core *netsim.Core
	var bfs topology.PathScratch
	eng, err := netsim.NewActive(netsim.ActiveConfig{
		Procs:     torus.Nodes(),
		Overheads: p.Overheads,
		Window:    p.Window,
		Latency: func(src, dst, bytes int) sim.Time {
			hops := 0
			if plan := core.FaultPlan(); plan != nil && plan.HasDeadLinks() {
				h, err := torus.HopsAvoid(src, dst, plan.LinkDead, &bfs)
				if err != nil {
					// A cut that disconnects the pair surfaces as a panic
					// carrying an error wrapping topology.ErrPartitioned,
					// which the BSP engine converts to a run failure.
					panic(err)
				}
				hops = h
			} else {
				hops = torus.Hops(src, dst)
			}
			return sim.Time(hops)*p.THop + sim.Time(bytes)*p.TByteNet
		},
		Jitter:      p.Jitter,
		BarrierCost: p.BarrierCost,
	})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	spec := netsim.NewSpec("cluster-torus").
		Int(p.Ary, p.Dims).
		F64(p.OSend, p.ORecv, p.CSendByte, p.CRecvByte, p.OSendBlock, p.ORecvBlock).
		Int(p.WordBytes, p.Window).
		F64(p.THop, p.TByteNet).
		Jitter(p.Jitter).
		F64(p.BarrierCost)
	core = netsim.NewCore(spec, eng)
	c := &machine.BasicCompute{AlphaC: 0.002, Beta: 0.001, Gamma: 0.004, MergeC: 0.003, OpC: 0.001, CallOverh: 0.2}
	return machine.Assemble("Modern cluster", core, c, 8, false)
}
