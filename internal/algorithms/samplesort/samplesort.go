// Package samplesort implements the splitter-based sample sort of Section
// 4.3 in its MP-BPRAM block-transfer form (after Blelloch et al., with the
// block-routing scheme of JaJa & Ryu for the send phase):
//
//  1. splitter phase: each processor draws S random samples; the P*S
//     samples are sorted with the block bitonic sort; the samples of rank
//     S, 2S, ..., (P-1)S become splitters and are all-gathered;
//  2. send phase: keys are radix-sorted locally, bucketed against the
//     splitters, bucket offsets are computed by a multi-scan implemented as
//     a double grid transpose (the paper's 4*sqrt(P) block steps), and the
//     keys are routed to their buckets in 4*sqrt(P) one-send/one-receive
//     steps of fixed padded size 4*N/P^1.5 - the padding the single-port
//     discipline forces, and the reason sample sort disappoints on the
//     GCel (Fig 18);
//  3. every processor radix-sorts its bucket.
//
// The Staggered variant replaces the padded routing with direct packed
// block messages in staggered order - the paper's relaxation that violates
// the single-port restriction and runs about twice as fast.
package samplesort

import (
	"fmt"

	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/bsplib"
	"quantpar/internal/lsort"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
	"quantpar/internal/wire"
)

// Variant selects the key-routing scheme of the send phase.
type Variant int

const (
	// Padded is the MP-BPRAM-compliant routing: 4*sqrt(P) steps of fixed
	// padded blocks.
	Padded Variant = iota
	// Staggered packs each bucket's keys into one message and sends the
	// P-1 messages directly in staggered order (violating the one-port
	// rule, as the paper notes).
	Staggered
)

func (v Variant) String() string {
	if v == Padded {
		return "padded"
	}
	return "staggered"
}

// Config parameterizes a run.
type Config struct {
	KeysPerProc int // M = N/P
	Oversample  int // S, the oversampling ratio
	Variant     Variant
	Seed        uint64
	Verify      bool
	// Trace, when non-nil, records the superstep timeline of the run.
	Trace *trace.Recorder
}

// Result reports a run.
type Result struct {
	Run        *bsplib.RunResult
	TimePerKey sim.Time
	// MaxBucket is the largest bucket size observed (the M_max of the
	// paper's cost analysis).
	MaxBucket int
	Sorted    bool
}

// Message tags.
const (
	tagGather = 21 // splitter all-gather rings
	tagScan   = 22 // multi-scan transposes
	tagRoute  = 23 // key routing
)

// Run executes sample sort of P*M random keys on machine m. P must be a
// perfect square and a power of two (it is 64 on the machines that run
// this algorithm).
func Run(m *machine.Machine, cfg Config) (*Result, error) {
	p := m.P()
	sq := intSqrt(p)
	if sq*sq != p {
		return nil, fmt.Errorf("samplesort: P=%d is not a perfect square", p)
	}
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("samplesort: P=%d is not a power of two", p)
	}
	if cfg.KeysPerProc < 1 || cfg.Oversample < 1 {
		return nil, fmt.Errorf("samplesort: invalid M=%d S=%d", cfg.KeysPerProc, cfg.Oversample)
	}
	if cfg.Oversample > cfg.KeysPerProc {
		return nil, fmt.Errorf("samplesort: oversampling S=%d exceeds M=%d", cfg.Oversample, cfg.KeysPerProc)
	}

	in := make([][]uint32, p)
	out := make([][]uint32, p)
	root := sim.NewRNG(cfg.Seed ^ 0x5a3e)
	for i := range in {
		rng := root.Split(uint64(i))
		keys := make([]uint32, cfg.KeysPerProc)
		for j := range keys {
			keys[j] = rng.Uint32()
		}
		in[i] = keys
	}

	maxBucket := make([]int, p)
	prog := func(ctx *bsplib.Context) {
		bucket := sortOne(ctx, cfg, sq, append([]uint32(nil), in[ctx.ID()]...))
		out[ctx.ID()] = bucket
		maxBucket[ctx.ID()] = len(bucket)
	}
	opts := bsplib.Options{Seed: cfg.Seed, Trace: cfg.Trace}
	if cfg.Variant == Padded {
		opts.Discipline = bsplib.DisciplineMPBPRAM
	}
	res, err := bsplib.Run(m, prog, opts)
	if err != nil {
		return nil, err
	}
	r := &Result{Run: res, TimePerKey: res.Time / sim.Time(cfg.KeysPerProc)}
	for _, b := range maxBucket {
		if b > r.MaxBucket {
			r.MaxBucket = b
		}
	}
	if cfg.Verify {
		r.Sorted = verify(in, out)
	}
	return r, nil
}

// sortOne is the per-processor body; it returns this processor's sorted
// bucket.
func sortOne(ctx *bsplib.Context, cfg Config, sq int, keys []uint32) []uint32 {
	m := ctx.Machine()
	p := ctx.P()
	id := ctx.ID()
	s := cfg.Oversample

	// --- Phase 1: splitters. ---
	samples := make([]uint32, s)
	perm := ctx.RNG().Perm(len(keys))
	for i := 0; i < s; i++ {
		samples[i] = keys[perm[i]]
	}
	ctx.ChargeOps(s)
	bitonic.Sort(ctx, samples, bitonic.Block, 0)
	// Splitters are the samples of rank S, 2S, ...: each processor's first
	// sample, excluding processor 0's.
	firsts := allGatherWord(ctx, sq, samples[0])
	splitters := firsts[1:]
	ctx.ChargeOps(p)

	// --- Phase 2: send. ---
	lsort.RadixSort(keys)
	ctx.Charge(m.Compute.RadixSortTime(len(keys), lsort.KeyBits, lsort.RadixBits))
	// Bucket counts by a linear scan over the sorted keys and splitters.
	counts := make([]uint32, p)
	b := 0
	for _, k := range keys {
		for b < len(splitters) && splitters[b] <= k {
			b++
		}
		counts[b]++
	}
	ctx.ChargeOps(len(keys) + p)

	// Multi-scan: global exclusive prefix of every bucket's counts over
	// processors, via double transpose. offsets[b] is this processor's
	// write offset within bucket b - the addresses the paper's pp_rsend
	// needed. Delivery in this engine is by message, so the offsets are
	// used only to pre-size the bucket (and are checked by the tests).
	offsets, _ := multiScan(ctx, sq, counts)
	_ = offsets

	// Route keys to buckets.
	var bucket []uint32
	if cfg.Variant == Padded {
		bucket = routePadded(ctx, sq, cfg.KeysPerProc, keys, counts)
	} else {
		bucket = routeStaggered(ctx, keys, counts)
	}

	// --- Phase 3: sort the bucket. ---
	lsort.RadixSort(bucket)
	ctx.Charge(m.Compute.RadixSortTime(len(bucket), lsort.KeyBits, lsort.RadixBits))
	_ = id
	return bucket
}

// sendU32 encodes xs into a payload buffer leased from ctx (recycled after
// the next synchronization) and queues it - the zero-copy replacement for
// the old Send(wire.PutUint32s(...)) pattern.
func sendU32(ctx *bsplib.Context, dst, tag int, xs []uint32) {
	ctx.Send(dst, tag, wire.AppendUint32s(ctx.PayloadBuf(4 * len(xs))[:0], xs))
}

// allGatherWord gathers one word from every processor using a row ring
// followed by a column ring on the sqrt(P) x sqrt(P) grid (the paper's
// transpose-style broadcast, Section 4.3.1), and returns the P words in
// processor order.
func allGatherWord(ctx *bsplib.Context, sq int, word uint32) []uint32 {
	id := ctx.ID()
	pi, pj := id/sq, id%sq
	pid := func(x, y int) int { return x*sq + y }

	// Row ring: after sq-1 steps every processor holds its row's words.
	// carry is decode scratch: its contents are consumed (stored into row)
	// and re-encoded into a fresh leased buffer before the next decode.
	row := make([]uint32, sq)
	row[pj] = word
	carry := []uint32{word}
	carryFrom := pj
	for r := 1; r < sq; r++ {
		dst := pid(pi, (pj+1)%sq)
		sendU32(ctx, dst, tagGather, carry)
		ctx.Sync()
		src := pid(pi, (pj-1+sq)%sq)
		pay := ctx.RecvFrom(src, tagGather)
		if pay == nil {
			panic(fmt.Sprintf("samplesort: processor %d missing ring word from %d", id, src))
		}
		carry = wire.Uint32sInto(carry, pay)
		carryFrom = (carryFrom - 1 + sq) % sq
		row[carryFrom] = carry[0]
	}

	// Column ring: pass whole row blocks; after sq-1 steps every processor
	// holds all P words.
	all := make([]uint32, sq*sq)
	copy(all[pi*sq:(pi+1)*sq], row)
	block := row
	blockFrom := pi
	var dec []uint32 // decode scratch, reused across steps
	for r := 1; r < sq; r++ {
		dst := pid((pi+1)%sq, pj)
		sendU32(ctx, dst, tagGather, block)
		ctx.Sync()
		src := pid((pi-1+sq)%sq, pj)
		pay := ctx.RecvFrom(src, tagGather)
		if pay == nil {
			panic(fmt.Sprintf("samplesort: processor %d missing ring block from %d", id, src))
		}
		dec = wire.Uint32sInto(dec, pay)
		block = dec
		blockFrom = (blockFrom - 1 + sq) % sq
		copy(all[blockFrom*sq:(blockFrom+1)*sq], block)
	}
	ctx.ChargeOps(2 * sq)
	return all
}

// multiScan computes, for every bucket b, this processor's exclusive write
// offset within bucket b and this processor's own bucket total, using a
// transpose, a local scan, and a transpose back - 4*(sqrt(P)-1) block steps
// of sqrt(P) words, the Section 4.3.1 cost 4*sqrt(P)*(sigma*w*sqrt(P)+ell).
func multiScan(ctx *bsplib.Context, sq int, counts []uint32) (offsets []uint32, myTotal uint32) {
	// full[src] = counts held at src for the bucket this processor owns.
	full := transposeAll(ctx, sq, counts)
	pre := make([]uint32, len(full))
	var sum uint32
	for i, c := range full {
		pre[i] = sum
		sum += c
	}
	ctx.ChargeOps(len(full))
	// offsets[b] = value pre computed at bucket owner b for this source.
	offsets = transposeAll(ctx, sq, pre)
	return offsets, sum
}

// transposeAll performs a full word transpose on the sqrt(P) x sqrt(P)
// processor grid: every processor supplies vec with one word per
// destination processor and receives res with one word per source
// processor (res[v] is the word processor v addressed to the caller). The
// schedule is two phases of sq-1 staggered-ring block steps with sq-word
// messages, each phase MP-BPRAM-legal (one send, one receive per step).
func transposeAll(ctx *bsplib.Context, sq int, vec []uint32) []uint32 {
	id := ctx.ID()
	pi, pj := id/sq, id%sq
	pid := func(x, y int) int { return x*sq + y }
	if len(vec) != sq*sq {
		panic(fmt.Sprintf("samplesort: transpose vector of %d words on %d processors", len(vec), sq*sq))
	}

	// Phase 1 (row rings): route vec entries for destination column y to
	// the row-mate (pi, y). mid[x*sq+j'] = word from source (pi, j')
	// destined to (x, pj). blk and dec are per-call scratch reused across
	// the ring steps.
	mid := make([]uint32, sq*sq)
	for x := 0; x < sq; x++ {
		mid[x*sq+pj] = vec[pid(x, pj)]
	}
	blk := make([]uint32, sq)
	var dec []uint32
	for r := 1; r < sq; r++ {
		y := (pj + r) % sq
		for x := 0; x < sq; x++ {
			blk[x] = vec[pid(x, y)]
		}
		sendU32(ctx, pid(pi, y), tagScan, blk)
		ctx.Sync()
		srcJ := (pj - r + sq) % sq
		pay := ctx.RecvFrom(pid(pi, srcJ), tagScan)
		if pay == nil {
			panic(fmt.Sprintf("samplesort: processor %d missing transpose block (phase 1)", id))
		}
		dec = wire.Uint32sInto(dec, pay)
		for x := 0; x < sq; x++ {
			mid[x*sq+srcJ] = dec[x]
		}
	}

	// Phase 2 (column rings): forward to final destination (x, pj); the
	// block carries one word per original source column.
	res := make([]uint32, sq*sq)
	copy(res[pi*sq:(pi+1)*sq], mid[pi*sq:(pi+1)*sq])
	for r := 1; r < sq; r++ {
		x := (pi + r) % sq
		sendU32(ctx, pid(x, pj), tagScan, mid[x*sq:(x+1)*sq])
		ctx.Sync()
		srcI := (pi - r + sq) % sq
		pay := ctx.RecvFrom(pid(srcI, pj), tagScan)
		if pay == nil {
			panic(fmt.Sprintf("samplesort: processor %d missing transpose block (phase 2)", id))
		}
		dec = wire.Uint32sInto(dec, pay)
		copy(res[srcI*sq:(srcI+1)*sq], dec)
	}
	ctx.ChargeOps(2 * sq * sq)
	return res
}

func intSqrt(p int) int {
	s := 0
	for (s+1)*(s+1) <= p {
		s++
	}
	return s
}
