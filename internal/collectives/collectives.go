// Package collectives implements the BSP communication primitives of the
// paper's companion work (Juurlink & Wijshoff, "Communication Primitives
// for BSP Computers", reference [16]): broadcast, scatter, gather,
// all-gather, reduction, all-reduce, prefix scan and total exchange. Each
// primitive is a real data-moving program against the superstep engine,
// written to be h-relation-optimal in the BSP sense (two-phase broadcasts,
// tree reductions), and each has a matching closed-form BSP cost
// prediction.
//
// Payloads are word slices (uint32); the primitives are the building
// blocks the paper's algorithms use implicitly, packaged for reuse.
package collectives

import (
	"fmt"

	"quantpar/internal/bsplib"
	"quantpar/internal/core"
	"quantpar/internal/sim"
	"quantpar/internal/wire"
)

// Message tags (distinct from the algorithm packages' tags).
const (
	tagBcast1 = 101
	tagBcast2 = 102
	tagReduce = 103
	tagScan   = 104
	tagGather = 105
	tagXchg   = 106
)

// Broadcast distributes root's words to every processor using the
// two-phase (scatter + all-gather) scheme, which is asymptotically optimal
// under BSP: both supersteps are h-relations with h about len(words).
// Non-root callers pass nil and every caller receives the full slice.
func Broadcast(ctx *bsplib.Context, root int, words []uint32) []uint32 {
	p := ctx.P()
	id := ctx.ID()
	if p == 1 {
		return append([]uint32(nil), words...)
	}

	// Phase 1: root scatters ceil(n/p)-word chunks (padded at the tail).
	var n int
	if id == root {
		n = len(words)
		if n == 0 {
			panic("collectives: broadcast of empty payload")
		}
		hdr := []uint32{uint32(n)}
		chunk := (n + p - 1) / p
		for r := 1; r < p; r++ {
			d := (root + r) % p
			lo := ((r) * chunk)
			if lo > n {
				lo = n
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			pay := append(append([]uint32(nil), hdr...), uint32(lo))
			pay = append(pay, words[lo:hi]...)
			ctx.Send(d, tagBcast1, wire.PutUint32s(pay))
		}
	}
	ctx.Sync()
	var total, lo int
	var mine []uint32
	if id == root {
		total = len(words)
		chunk := (total + p - 1) / p
		hi := chunk
		if hi > total {
			hi = total
		}
		mine = words[:hi]
		lo = 0
	} else {
		pay := ctx.RecvFrom(root, tagBcast1)
		if pay == nil {
			panic(fmt.Sprintf("collectives: processor %d missing broadcast chunk", id))
		}
		ws := wire.Uint32s(pay)
		total = int(ws[0])
		lo = int(ws[1])
		mine = ws[2:]
	}

	// Phase 2: all-gather the chunks.
	if len(mine) > 0 {
		pay := wire.PutUint32s(append([]uint32{uint32(lo)}, mine...))
		for r := 1; r < p; r++ {
			ctx.Send((id+r)%p, tagBcast2, pay)
		}
	}
	ctx.Sync()
	out := make([]uint32, total)
	copy(out[lo:], mine)
	for _, pay := range ctx.Recv(tagBcast2) {
		ws := wire.Uint32s(pay)
		copy(out[int(ws[0]):], ws[1:])
	}
	ctx.ChargeOps(2 * total)
	return out
}

// PredictBroadcast returns the BSP cost of the two-phase broadcast of n
// words: 2*(g*n + L) (each phase moves about n words per processor).
func PredictBroadcast(b core.BSP, n int) sim.Time {
	return 2 * (b.G*sim.Time(n) + b.L)
}

// Scatter sends the i-th chunk of root's words to processor i and returns
// this processor's chunk. len(words) must be a multiple of P on the root.
func Scatter(ctx *bsplib.Context, root int, words []uint32) []uint32 {
	p := ctx.P()
	id := ctx.ID()
	var chunk int
	if id == root {
		if len(words)%p != 0 {
			panic(fmt.Sprintf("collectives: scatter of %d words over %d processors", len(words), p))
		}
		chunk = len(words) / p
		for d := 0; d < p; d++ {
			if d == root {
				continue
			}
			ctx.Send(d, tagBcast1, wire.PutUint32s(words[d*chunk:(d+1)*chunk]))
		}
	}
	ctx.Sync()
	if id == root {
		return append([]uint32(nil), words[root*chunk:(root+1)*chunk]...)
	}
	pay := ctx.RecvFrom(root, tagBcast1)
	if pay == nil {
		panic(fmt.Sprintf("collectives: processor %d missing scatter chunk", id))
	}
	return wire.Uint32s(pay)
}

// Gather collects every processor's equal-length chunk at root (inverse of
// Scatter); non-root callers receive nil.
func Gather(ctx *bsplib.Context, root int, chunk []uint32) []uint32 {
	p := ctx.P()
	id := ctx.ID()
	if id != root {
		ctx.Send(root, tagGather, wire.PutUint32s(chunk))
	}
	ctx.Sync()
	if id != root {
		return nil
	}
	out := make([]uint32, len(chunk)*p)
	copy(out[root*len(chunk):], chunk)
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		pay := ctx.RecvFrom(src, tagGather)
		if pay == nil {
			panic(fmt.Sprintf("collectives: root missing gather chunk from %d", src))
		}
		copy(out[src*len(chunk):], wire.Uint32s(pay))
	}
	ctx.ChargeOps(len(out))
	return out
}

// AllGather collects every processor's equal-length chunk everywhere: a
// single superstep routing an h-relation with h = (P-1)*len(chunk).
func AllGather(ctx *bsplib.Context, chunk []uint32) []uint32 {
	p := ctx.P()
	id := ctx.ID()
	pay := wire.PutUint32s(chunk)
	for r := 1; r < p; r++ {
		ctx.Send((id+r)%p, tagGather, pay)
	}
	ctx.Sync()
	out := make([]uint32, len(chunk)*p)
	copy(out[id*len(chunk):], chunk)
	for src := 0; src < p; src++ {
		if src == id {
			continue
		}
		got := ctx.RecvFrom(src, tagGather)
		if got == nil {
			panic(fmt.Sprintf("collectives: processor %d missing all-gather chunk from %d", id, src))
		}
		copy(out[src*len(chunk):], wire.Uint32s(got))
	}
	ctx.ChargeOps(len(out))
	return out
}

// Op is an associative reduction operator on words.
type Op func(a, b uint32) uint32

// Sum is addition modulo 2^32.
func Sum(a, b uint32) uint32 { return a + b }

// Max returns the larger word.
func Max(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller word.
func Min(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Reduce folds one value per processor down a binary tree to processor 0
// in log2(P) supersteps; only processor 0 receives the result (other
// callers get the partial fold of their subtree).
func Reduce(ctx *bsplib.Context, value uint32, op Op) uint32 {
	p := ctx.P()
	id := ctx.ID()
	logP := core.IntLog2(p)
	acc := value
	for r := 0; r < logP; r++ {
		bit := 1 << uint(r)
		mask := bit<<1 - 1
		switch {
		case id&mask == bit:
			ctx.Send(id&^mask, tagReduce, wire.PutUint32s([]uint32{acc}))
			ctx.Sync()
		case id&mask == 0:
			ctx.Sync()
			if pay := ctx.RecvFrom(id|bit, tagReduce); pay != nil {
				acc = op(acc, wire.Uint32s(pay)[0])
				ctx.ChargeOps(1)
			}
		default:
			ctx.Sync()
		}
	}
	return acc
}

// AllReduce folds one value per processor and distributes the result to
// everyone: a tree reduce followed by a tree broadcast, 2*log2(P)
// supersteps of 1-relations.
func AllReduce(ctx *bsplib.Context, value uint32, op Op) uint32 {
	p := ctx.P()
	id := ctx.ID()
	logP := core.IntLog2(p)
	acc := Reduce(ctx, value, op)
	for r := logP - 1; r >= 0; r-- {
		bit := 1 << uint(r)
		mask := bit<<1 - 1
		switch {
		case id&mask == 0:
			ctx.Send(id|bit, tagReduce, wire.PutUint32s([]uint32{acc}))
			ctx.Sync()
		case id&mask == bit:
			ctx.Sync()
			if pay := ctx.RecvFrom(id&^mask, tagReduce); pay != nil {
				acc = wire.Uint32s(pay)[0]
			}
		default:
			ctx.Sync()
		}
	}
	return acc
}

// PredictAllReduce returns the BSP cost of the tree all-reduce:
// 2*log2(P)*(g + L).
func PredictAllReduce(b core.BSP, _ int) sim.Time {
	return 2 * sim.Time(core.IntLog2(b.P)) * (b.G + b.L)
}

// ExclusiveScan computes the exclusive prefix fold of one value per
// processor in processor order using the classic doubling scheme:
// log2(P) supersteps of 1-relations. Processor 0 receives identity.
func ExclusiveScan(ctx *bsplib.Context, value uint32, identity uint32, op Op) uint32 {
	p := ctx.P()
	id := ctx.ID()
	logP := core.IntLog2(p)
	carry := value     // fold of [id-span+1 .. id] as spans grow
	result := identity // fold of everything strictly before id
	for r := 0; r < logP; r++ {
		span := 1 << uint(r)
		if id+span < p {
			ctx.Send(id+span, tagScan, wire.PutUint32s([]uint32{carry}))
		}
		ctx.Sync()
		if id-span >= 0 {
			pay := ctx.RecvFrom(id-span, tagScan)
			if pay == nil {
				panic(fmt.Sprintf("collectives: processor %d missing scan carry", id))
			}
			v := wire.Uint32s(pay)[0]
			result = op(v, result)
			carry = op(v, carry)
			ctx.ChargeOps(2)
		}
	}
	return result
}

// TotalExchange routes vec[d] from every processor to processor d and
// returns res[s] = the word processor s addressed to the caller (a P x P
// word transpose in one h-relation superstep with h = P-1).
func TotalExchange(ctx *bsplib.Context, vec []uint32) []uint32 {
	p := ctx.P()
	id := ctx.ID()
	if len(vec) != p {
		panic(fmt.Sprintf("collectives: total exchange of %d words on %d processors", len(vec), p))
	}
	for r := 1; r < p; r++ {
		d := (id + r) % p
		ctx.Send(d, tagXchg, wire.PutUint32s(vec[d:d+1]))
	}
	ctx.Sync()
	res := make([]uint32, p)
	res[id] = vec[id]
	for src := 0; src < p; src++ {
		if src == id {
			continue
		}
		pay := ctx.RecvFrom(src, tagXchg)
		if pay == nil {
			panic(fmt.Sprintf("collectives: processor %d missing exchange word from %d", id, src))
		}
		res[src] = wire.Uint32s(pay)[0]
	}
	ctx.ChargeOps(p)
	return res
}

// PredictTotalExchange returns the BSP cost of the word total exchange:
// g*(P-1) + L.
func PredictTotalExchange(b core.BSP) sim.Time {
	return b.G*sim.Time(b.P-1) + b.L
}
