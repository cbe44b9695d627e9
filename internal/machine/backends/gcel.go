package backends

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/machine"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

// GCelParams are the physical constants of the Parsytec GCel, in
// microseconds: a grid of T805 transputers with store-and-forward,
// dimension-ordered (XY) routing, driven by the HPVM message-passing layer
// whose per-message software overheads dominate every cost on this
// machine. The backend is netsim's phased engine with an XY-path transit
// function.
//
// The defaults reproduce the paper's Table 1 for the GCel (g about
// 4480 us per message, L about 5100 us, sigma about 9.3 us/byte, ell about
// 6900 us), the 9.1x discount of a multinode scatter (Fig 14) - a direct
// consequence of the receive side being roughly eight times more expensive
// than the send side - and the h-h permutation blow-up past h of roughly
// 300 caused by the finite receive buffer (Fig 7).
type GCelParams struct {
	Width, Height int
	// Overheads are HPVM's per-message software costs on the transputers;
	// messages of at most WordBytes bytes take the short path, larger ones
	// the block primitive.
	netsim.Overheads
	THop         float64 // per-hop store-and-forward fixed cost
	TByteLink    float64 // per-byte per-hop link time
	RecvBuffer   int     // receive buffer capacity, in messages
	RetryPenalty float64 // resend delay after an overflow
	NackCost     float64 // receiver CPU burnt refusing an overflowing message
	Jitter       float64 // relative noise of software overheads
	BarrierCost  float64 // software barrier over the mesh
}

// DefaultGCelParams returns the paper's 8x8 GCel under HPVM.
func DefaultGCelParams() GCelParams {
	return GCelParams{
		Width: 8, Height: 8,
		Overheads: netsim.Overheads{
			OSend:      470,
			ORecv:      4060,
			CSendByte:  4.3,
			CRecvByte:  4.3,
			OSendBlock: 900,
			ORecvBlock: 1500,
			WordBytes:  8,
		},
		THop:         100,
		TByteLink:    0.1,
		RecvBuffer:   256,
		RetryPenalty: 1500,
		NackCost:     600,
		Jitter:       0.03,
		BarrierCost:  3400,
	}
}

// GCel builds a Parsytec GCel transputer mesh. Each node is a 30 MHz T805
// at roughly 1.5 Mflops nominal with flat memory.
func GCel(p GCelParams) (*machine.Machine, error) {
	grid, err := topology.NewMesh(p.Width, p.Height)
	if err != nil {
		return nil, fmt.Errorf("machine: gcel: %w", err)
	}
	// transit walks the XY path hop by hop: store-and-forward means each
	// hop retransmits the whole message, claiming the link for the fixed
	// hop cost plus the per-byte stream time. It reads the core's active
	// fault plan to route around killed links; pathBuf and bfs are its
	// scratch, reused across messages so that routing stays
	// allocation-free.
	var core *netsim.Core
	var pathBuf []int
	var bfs topology.PathScratch
	transit := func(src, dst, bytes int, depart sim.Time, links *netsim.LinkTable, stats *comm.Stats) sim.Time {
		if src == dst {
			return depart
		}
		var path []int
		if plan := core.FaultPlan(); plan != nil && plan.HasDeadLinks() {
			// A cut that disconnects the pair surfaces as a panic carrying
			// an error wrapping topology.ErrPartitioned, which the BSP
			// engine converts to a run failure.
			var err error
			path, err = grid.PathAvoid(pathBuf[:0], src, dst, plan.LinkDead, &bfs)
			if err != nil {
				panic(err)
			}
		} else {
			path = grid.Path(pathBuf[:0], src, dst)
		}
		pathBuf = path
		t := depart
		dur := p.THop + sim.Time(bytes)*p.TByteLink
		for _, link := range path {
			t = links.Claim(link, t, dur)
		}
		stats.HopSum += len(path)
		return t
	}
	eng, err := netsim.NewPhased(netsim.PhasedConfig{
		Procs:        grid.Nodes(),
		Overheads:    p.Overheads,
		RecvBuffer:   p.RecvBuffer,
		RetryPenalty: p.RetryPenalty,
		NackCost:     p.NackCost,
		Jitter:       p.Jitter,
		BarrierCost:  p.BarrierCost,
	}, grid.NumLinks(), transit)
	if err != nil {
		return nil, fmt.Errorf("machine: gcel: %w", err)
	}
	spec := netsim.NewSpec("gcel-mesh").
		Int(p.Width, p.Height).
		F64(p.OSend, p.ORecv, p.CSendByte, p.CRecvByte, p.OSendBlock, p.ORecvBlock).
		Int(p.WordBytes).
		F64(p.THop, p.TByteLink).
		Int(p.RecvBuffer).
		F64(p.RetryPenalty, p.NackCost).
		Jitter(p.Jitter).
		F64(p.BarrierCost)
	core = netsim.NewCore(spec, eng)
	c := &machine.BasicCompute{AlphaC: 1.35, Beta: 0.5, Gamma: 1.6, MergeC: 1.2, OpC: 0.35, CallOverh: 15}
	return machine.Assemble("Parsytec GCel", core, c, 4, false)
}
