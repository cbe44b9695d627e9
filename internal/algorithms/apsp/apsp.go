// Package apsp implements the parallel Floyd all-pairs shortest path
// algorithm of Section 4.4: the distance matrix is distributed in M x M
// blocks (M = N/sqrt(P)) over a sqrt(P) x sqrt(P) processor grid; each of
// the N iterations broadcasts the active column along rows and the active
// row along columns, then updates the local block.
//
// The broadcast is the paper's two-superstep scheme: the owners scatter
// their segment across their row (an unbalanced step with only sqrt(P)
// senders - the (N, N/sqrt(P), N/P)-relation whose mispricing by BSP is
// the point of Figs 12 and 13), then every processor all-gathers the
// subsegments. When M < sqrt(P) an extra doubling phase replicates the
// scattered items, exactly as in Section 4.4's analysis.
package apsp

import (
	"fmt"

	"quantpar/internal/bsplib"
	"quantpar/internal/graphs"
	"quantpar/internal/linalg"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
	"quantpar/internal/wire"
)

// Config parameterizes a run.
type Config struct {
	N        int     // vertices
	EdgeProb float64 // random digraph density
	Seed     uint64
	Verify   bool
	// Trace, when non-nil, records the superstep timeline of the run.
	Trace *trace.Recorder
}

// Result reports a run.
type Result struct {
	Run *bsplib.RunResult
	// MaxErr is the largest absolute deviation from sequential
	// Floyd-Warshall (when Verify was set).
	MaxErr float64
}

// Message tags.
const (
	tagScatter = 31
	tagDouble  = 32
	tagGather  = 33
)

// Run executes the parallel Floyd algorithm on machine m.
func Run(m *machine.Machine, cfg Config) (*Result, error) {
	p := m.P()
	sq := 1
	for (sq+1)*(sq+1) <= p {
		sq++
	}
	if sq*sq != p {
		return nil, fmt.Errorf("apsp: P=%d is not a perfect square", p)
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("apsp: N=%d, want a positive matrix size", cfg.N)
	}
	if cfg.N%sq != 0 {
		return nil, fmt.Errorf("apsp: N=%d not divisible by sqrt(P)=%d", cfg.N, sq)
	}
	mm := cfg.N / sq
	if mm >= sq && mm%sq != 0 {
		return nil, fmt.Errorf("apsp: segment M=%d not divisible by sqrt(P)=%d", mm, sq)
	}
	if mm < sq && sq%mm != 0 {
		return nil, fmt.Errorf("apsp: sqrt(P)=%d not divisible by segment M=%d", sq, mm)
	}

	prob := cfg.EdgeProb
	if prob == 0 {
		prob = 0.25
	}
	rng := sim.NewRNG(cfg.Seed ^ 0xAB5B)
	d := graphs.RandomDigraph(cfg.N, prob, 100, rng)
	var ref *linalg.Mat
	if cfg.Verify {
		ref = graphs.Floyd(d)
	}
	work := d.Clone()

	prog := func(ctx *bsplib.Context) {
		iterate(ctx, m, work, cfg.N, sq, mm)
	}
	res, err := bsplib.Run(m, prog, bsplib.Options{Seed: cfg.Seed, Trace: cfg.Trace})
	if err != nil {
		return nil, err
	}
	r := &Result{Run: res}
	if cfg.Verify {
		r.MaxErr = maxErrInfAware(ref, work)
	}
	return r, nil
}

// maxErrInfAware compares two distance matrices treating any value of at
// least graphs.Inf/2 as "unreachable": the 4-byte wire word rounds the Inf
// sentinel, so unreachable entries only have to agree in kind, not in bits.
func maxErrInfAware(a, b *linalg.Mat) float64 {
	worst := 0.0
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if x >= graphs.Inf/2 && y >= graphs.Inf/2 {
			continue
		}
		d := x - y
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// iterate is the per-processor body: N Floyd iterations over the local
// block of the shared matrix.
func iterate(ctx *bsplib.Context, m *machine.Machine, d *linalg.Mat, n, sq, mm int) {
	id := ctx.ID()
	s, t := id/sq, id%sq

	x := make([]float64, mm)      // active column segment: D[s*mm+i][k]
	y := make([]float64, mm)      // active row segment:    D[k][t*mm+j]
	colSeg := make([]float64, mm) // owner staging, reused across iterations
	rowSeg := make([]float64, mm)
	var sc bcastScratch
	for k := 0; k < n; k++ {
		oc := k / mm // owner grid column of global column k
		or := k / mm // owner grid row of global row k

		// Broadcast the active column along rows: owners are (s, oc).
		var cs []float64
		if t == oc {
			for i := 0; i < mm; i++ {
				colSeg[i] = d.At(s*mm+i, k)
			}
			cs = colSeg
		}
		bcastRow(ctx, m, &sc, cs, x, s, t, sq, mm, oc)

		// Broadcast the active row along columns: owners are (or, t).
		var rs []float64
		if s == or {
			for j := 0; j < mm; j++ {
				rowSeg[j] = d.At(k, t*mm+j)
			}
			rs = rowSeg
		}
		bcastCol(ctx, m, &sc, rs, y, s, t, sq, mm, or)

		// Local update of the M x M block.
		for i := 0; i < mm; i++ {
			ri := (s*mm + i) * d.Cols
			xi := x[i]
			for j := 0; j < mm; j++ {
				if v := xi + y[j]; v < d.Data[ri+t*mm+j] {
					d.Data[ri+t*mm+j] = v
				}
			}
		}
		ctx.Charge(m.Compute.Alpha() * sim.Time(mm) * sim.Time(mm))
	}
}

// bcastRow distributes seg (held by the owner (s, oc); nil elsewhere) to
// every processor of grid row s, filling dst.
func bcastRow(ctx *bsplib.Context, m *machine.Machine, sc *bcastScratch, seg []float64, dst []float64, s, t, sq, mm, oc int) {
	sqGrid := func(x, y int) int { return x*sq + y }
	broadcast(ctx, m, sc, seg, dst, t, oc, mm, sq, func(peer int) int { return sqGrid(s, peer) })
}

// bcastCol distributes seg (held by the owner (or, t); nil elsewhere) to
// every processor of grid column t.
func bcastCol(ctx *bsplib.Context, m *machine.Machine, sc *bcastScratch, seg []float64, dst []float64, s, t, sq, mm, or int) {
	sqGrid := func(x, y int) int { return x*sq + y }
	broadcast(ctx, m, sc, seg, dst, s, or, mm, sq, func(peer int) int { return sqGrid(peer, t) })
}

// broadcast runs the two-superstep scheme within one grid line of sq
// processors: me is this processor's position in the line, owner the
// segment holder's position, pid maps line positions to processor ids.
func broadcast(ctx *bsplib.Context, m *machine.Machine, sc *bcastScratch, seg, dst []float64, me, owner, mm, sq int, pid func(int) int) {
	id := ctx.ID()
	switch {
	case mm >= sq:
		chunk := mm / sq
		// Superstep A: the owner scatters chunk c to line position c.
		if me == owner {
			for r := 1; r < sq; r++ {
				c := (owner + r) % sq
				ctx.SendWords(pid(c), tagScatter, sc.encode(ctx, m, seg[c*chunk:(c+1)*chunk]))
			}
		}
		ctx.Sync()
		mine := sc.mine
		if cap(mine) < chunk {
			mine = make([]float64, chunk)
		} else {
			mine = mine[:chunk]
		}
		sc.mine = mine
		if me == owner {
			copy(mine, seg[owner*chunk:(owner+1)*chunk])
		} else {
			pay := ctx.RecvFrom(pid(owner), tagScatter)
			if pay == nil {
				panic(fmt.Sprintf("apsp: processor %d missing scatter chunk", id))
			}
			copy(mine, sc.decode(m, pay))
		}
		// Superstep B: all-gather the chunks along the line, staggered. One
		// payload lease is shared by all sq-1 sends; every send happens
		// before the Sync that ends the lease.
		pay := sc.encode(ctx, m, mine)
		for r := 1; r < sq; r++ {
			ctx.SendWords(pid((me+r)%sq), tagGather, pay)
		}
		ctx.Sync()
		copy(dst[me*chunk:(me+1)*chunk], mine)
		for c := 0; c < sq; c++ {
			if c == me {
				continue
			}
			got := ctx.RecvFrom(pid(c), tagGather)
			if got == nil {
				panic(fmt.Sprintf("apsp: processor %d missing gather chunk from position %d", id, c))
			}
			copy(dst[c*chunk:(c+1)*chunk], sc.decode(m, got))
		}
	default:
		// M < sqrt(P): scatter single items to the first M positions,
		// double log(sq/mm) times, then all-gather within aligned groups
		// of M positions.
		var word float64
		hasWord := false
		if me == owner {
			for i := 0; i < mm; i++ {
				if i == owner {
					continue
				}
				ctx.SendWords(pid(i), tagScatter, sc.encode(ctx, m, seg[i:i+1]))
			}
			if owner < mm {
				word = seg[owner]
				hasWord = true
			}
		}
		ctx.Sync()
		if !hasWord && me < mm {
			pay := ctx.RecvFrom(pid(owner), tagScatter)
			if pay == nil {
				panic(fmt.Sprintf("apsp: processor %d missing scatter item", id))
			}
			word = sc.decode(m, pay)[0]
			hasWord = true
		}
		span := mm
		for span < sq {
			if hasWord && me < span {
				sc.one[0] = word
				ctx.SendWords(pid(me+span), tagDouble, sc.encode(ctx, m, sc.one[:]))
			}
			ctx.Sync()
			if !hasWord && me < 2*span {
				pay := ctx.RecvFrom(pid(me-span), tagDouble)
				if pay == nil {
					panic(fmt.Sprintf("apsp: processor %d missing doubling item", id))
				}
				word = sc.decode(m, pay)[0]
				hasWord = true
			}
			span *= 2
		}
		// Every position now holds item (me % mm). All-gather within the
		// aligned group of mm positions.
		base := me - me%mm
		sc.one[0] = word
		pay := sc.encode(ctx, m, sc.one[:])
		for r := 1; r < mm; r++ {
			ctx.SendWords(pid(base+(me-base+r)%mm), tagGather, pay)
		}
		ctx.Sync()
		dst[me%mm] = word
		for i := 0; i < mm; i++ {
			pos := base + i
			if pos == me {
				continue
			}
			got := ctx.RecvFrom(pid(pos), tagGather)
			if got == nil {
				panic(fmt.Sprintf("apsp: processor %d missing group item from position %d", id, pos))
			}
			dst[i] = sc.decode(m, got)[0]
		}
	}
	ctx.ChargeOps(mm)
}

// bcastScratch holds per-processor reusable buffers for the broadcast wire
// traffic: encode stages into leased payload buffers via ctx.PayloadBuf and
// decode reuses program-owned backing, so the N-iteration loop is
// allocation-free in steady state.
type bcastScratch struct {
	mine []float64  // this position's chunk of the active segment
	one  [1]float64 // staging for single-item messages
	dec  []float64  // decode destination
}

// encode converts a float64 segment to the machine's wire word inside a
// payload buffer leased from ctx (valid until the next Sync/Flush).
func (sc *bcastScratch) encode(ctx *bsplib.Context, m *machine.Machine, xs []float64) []byte {
	return wire.AppendWords(ctx.PayloadBuf(m.WordBytes * len(xs))[:0], xs, m.WordBytes)
}

// decode converts a received payload back to float64s. The result is scratch,
// overwritten by the next decode call.
func (sc *bcastScratch) decode(m *machine.Machine, b []byte) []float64 {
	sc.dec = wire.WordsInto(sc.dec, b, m.WordBytes)
	return sc.dec
}
