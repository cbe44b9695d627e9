// Package mesh simulates the Parsytec GCel's interconnect: an 8x8 grid of
// T805 transputers with store-and-forward, dimension-ordered (XY) routing,
// driven by the HPVM message-passing layer whose per-message software
// overheads dominate every cost on this machine.
//
// The package is a thin topology policy over netsim's phased engine: it
// contributes the XY-path transit function and the calibrated constants,
// and the engine does the rest.
//
// The calibrated constants reproduce the paper's Table 1 for the GCel
// (g about 4480 us per message, L about 5100 us, sigma about 9.3 us/byte,
// ell about 6900 us), the 9.1x discount of a multinode scatter (Fig 14) -
// a direct consequence of the receive side being roughly eight times more
// expensive than the send side - and the h-h permutation blow-up past
// h of roughly 300 caused by the finite receive buffer (Fig 7).
package mesh

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/netsim"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

// Params are the physical constants of the GCel model, in microseconds.
type Params struct {
	Width, Height int
	OSend         float64 // HPVM per-message sender software overhead
	ORecv         float64 // HPVM per-message receiver software overhead
	CSendByte     float64 // per-byte cost on the sending transputer
	CRecvByte     float64 // per-byte cost on the receiving transputer
	OSendBlock    float64 // per-message sender overhead of the block primitive
	ORecvBlock    float64 // per-message receiver overhead of the block primitive
	WordBytes     int     // messages at most this size use the short path
	THop          float64 // per-hop store-and-forward fixed cost
	TByteLink     float64 // per-byte per-hop link time
	RecvBuffer    int     // receive buffer capacity, in messages
	RetryPenalty  float64 // resend delay after an overflow
	NackCost      float64 // receiver CPU burnt refusing an overflowing message
	Jitter        float64 // relative noise of software overheads
	BarrierCost   float64 // software barrier over the mesh
}

// DefaultParams returns constants calibrated against the paper's GCel
// measurements under HPVM.
func DefaultParams() Params {
	return Params{
		Width: 8, Height: 8,
		OSend:        470,
		ORecv:        4060,
		CSendByte:    4.3,
		CRecvByte:    4.3,
		OSendBlock:   900,
		ORecvBlock:   1500,
		WordBytes:    8,
		THop:         100,
		TByteLink:    0.1,
		RecvBuffer:   256,
		RetryPenalty: 1500,
		NackCost:     600,
		Jitter:       0.03,
		BarrierCost:  3400,
	}
}

// Router is a GCel interconnect simulator. Like the phased engine it wraps,
// a Router is not safe for concurrent Route calls on one instance: transit
// reuses a per-router path buffer so that per-message routing stays
// allocation-free.
type Router struct {
	*netsim.Core
	p       Params
	grid    *topology.Mesh
	pathBuf []int                // transit scratch, reused across messages
	bfs     topology.PathScratch // route-around search scratch
}

// New builds a router from params.
func New(p Params) (*Router, error) {
	grid, err := topology.NewMesh(p.Width, p.Height)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	r := &Router{p: p, grid: grid}
	eng, err := netsim.NewPhased(netsim.PhasedConfig{
		Procs: grid.Nodes(),
		Overheads: netsim.Overheads{
			OSend:      p.OSend,
			ORecv:      p.ORecv,
			CSendByte:  p.CSendByte,
			CRecvByte:  p.CRecvByte,
			OSendBlock: p.OSendBlock,
			ORecvBlock: p.ORecvBlock,
			WordBytes:  p.WordBytes,
		},
		RecvBuffer:   p.RecvBuffer,
		RetryPenalty: p.RetryPenalty,
		NackCost:     p.NackCost,
		Jitter:       p.Jitter,
		BarrierCost:  p.BarrierCost,
	}, grid.NumLinks(), r.transit)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
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
	r.Core = netsim.NewCore(spec, eng)
	return r, nil
}

// Edges returns the mesh's undirected links as node pairs, in the
// deterministic order fault plans use to pick links to kill.
func (r *Router) Edges() [][2]int { return r.grid.Edges() }

// Params returns the router's physical constants.
func (r *Router) Params() Params { return r.p }

// transit walks the XY path hop by hop: store-and-forward means each hop
// retransmits the whole message, claiming the link for the fixed hop cost
// plus the per-byte stream time.
func (r *Router) transit(src, dst, bytes int, depart sim.Time, links *netsim.LinkTable, stats *comm.Stats) sim.Time {
	if src == dst {
		return depart
	}
	var path []int
	if plan := r.FaultPlan(); plan != nil && plan.HasDeadLinks() {
		// Route around killed links with a deterministic BFS; a cut that
		// disconnects the pair surfaces as a panic carrying an error that
		// wraps topology.ErrPartitioned, which the BSP engine converts to
		// a structured run failure.
		var err error
		path, err = r.grid.PathAvoid(r.pathBuf[:0], src, dst, plan.LinkDead, &r.bfs)
		if err != nil {
			panic(err)
		}
	} else {
		path = r.grid.Path(r.pathBuf[:0], src, dst)
	}
	r.pathBuf = path
	t := depart
	dur := r.p.THop + sim.Time(bytes)*r.p.TByteLink
	for _, link := range path {
		t = links.Claim(link, t, dur)
	}
	stats.HopSum += len(path)
	return t
}
