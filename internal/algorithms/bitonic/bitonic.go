// Package bitonic implements Batcher's bitonic sort with multiple keys per
// processor (Section 4.2 of the paper): every processor first radix-sorts
// its N/P keys locally, then log(P) merge stages exchange whole runs with
// cube neighbours and keep the low or high half via a linear merge-split.
//
// Variants:
//
//   - Word: the BSP / MP-BSP version exchanging M one-word messages per
//     step. On the MasPar the exchange pattern is a single-bit cube
//     permutation, which routes conflict-free through the delta network -
//     the reason the model overestimates bitonic by ~2x there (Fig 5/10).
//     On the GCel the version runs unsynchronized by default and drifts
//     (Fig 6); BarrierEvery inserts the paper's fix of a barrier every 256
//     messages.
//   - Block: the MP-BPRAM version exchanging one M-word block per step.
package bitonic

import (
	"fmt"

	"quantpar/internal/bsplib"
	"quantpar/internal/lsort"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
	"quantpar/internal/wire"
)

// Variant selects the message granularity.
type Variant int

const (
	// Word exchanges runs as word streams (BSP / MP-BSP).
	Word Variant = iota
	// Block exchanges runs as single block messages (MP-BPRAM).
	Block
)

func (v Variant) String() string {
	if v == Word {
		return "word"
	}
	return "block"
}

// Config parameterizes a run.
type Config struct {
	// KeysPerProc is M = N/P.
	KeysPerProc int
	Variant     Variant
	// BarrierEvery > 0 inserts a barrier after every that many words of a
	// word exchange (the paper's synchronized GCel variant, 256). Zero
	// leaves word exchanges unsynchronized on MIMD machines.
	BarrierEvery int
	// WordsPerMsg > 1 aggregates Word-variant exchanges into fixed-size
	// messages of that many words - the "fixed size short messages, but
	// larger than one computational word" of the paper's conclusions.
	WordsPerMsg int
	Seed        uint64
	Verify      bool
	// Trace, when non-nil, records the superstep timeline of the run.
	Trace *trace.Recorder
}

// Result reports a run.
type Result struct {
	Run *bsplib.RunResult
	// TimePerKey is the simulated total time divided by the keys per
	// processor, the y-axis of the paper's sorting figures.
	TimePerKey sim.Time
	// Sorted reports whether verification found the global output sorted
	// with the input multiset preserved (only when Verify was set).
	Sorted bool
}

const tagX = 7 // exchange tag

// Run executes bitonic sort of P*M random keys on machine m.
func Run(m *machine.Machine, cfg Config) (*Result, error) {
	p := m.P()
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("bitonic: P=%d is not a power of two", p)
	}
	if cfg.KeysPerProc < 1 {
		return nil, fmt.Errorf("bitonic: invalid keys per processor %d", cfg.KeysPerProc)
	}
	in := make([][]uint32, p)
	out := make([][]uint32, p)
	root := sim.NewRNG(cfg.Seed ^ 0xB170)
	for i := range in {
		rng := root.Split(uint64(i))
		keys := make([]uint32, cfg.KeysPerProc)
		for j := range keys {
			keys[j] = rng.Uint32()
		}
		in[i] = keys
	}

	prog := func(ctx *bsplib.Context) {
		keys := append([]uint32(nil), in[ctx.ID()]...)
		sortKeys(ctx, keys, cfg)
		out[ctx.ID()] = keys
	}
	opts := bsplib.Options{Seed: cfg.Seed, Trace: cfg.Trace}
	if cfg.Variant == Block {
		opts.Discipline = bsplib.DisciplineMPBPRAM
	}
	res, err := bsplib.Run(m, prog, opts)
	if err != nil {
		return nil, err
	}
	r := &Result{Run: res, TimePerKey: res.Time / sim.Time(cfg.KeysPerProc)}
	if cfg.Verify {
		r.Sorted = verify(in, out)
	}
	return r, nil
}

// Sort runs the full bitonic sort on the calling processor's keys in place:
// local radix sort, then log(P) merge stages. It is exported so that sample
// sort can reuse it for its splitter phase. len(keys) must be equal on all
// processors.
func Sort(ctx *bsplib.Context, keys []uint32, v Variant, barrierEvery int) {
	sortKeys(ctx, keys, Config{Variant: v, BarrierEvery: barrierEvery})
}

// exchScratch is per-processor exchange scratch: the encoded outgoing run,
// the reassembled incoming run, and the decoded partner keys all live in
// reused buffers, so each merge step is allocation-free in steady state.
type exchScratch struct {
	pay []byte
	got []byte
	dec []uint32
}

func sortKeys(ctx *bsplib.Context, keys []uint32, cfg Config) {
	m := ctx.Machine()
	lsort.RadixSort(keys)
	ctx.Charge(m.Compute.RadixSortTime(len(keys), lsort.KeyBits, lsort.RadixBits))

	logP := 0
	for 1<<uint(logP) < ctx.P() {
		logP++
	}
	id := ctx.ID()
	var sc exchScratch
	buf := make([]uint32, len(keys))
	for d := 1; d <= logP; d++ {
		for b := d - 1; b >= 0; b-- {
			partner := id ^ (1 << uint(b))
			ascending := (id>>uint(d))&1 == 0
			keepLow := (id < partner) == ascending
			sc.dec = wire.Uint32sInto(sc.dec, exchange(ctx, keys, cfg, partner, &sc))
			other := sc.dec
			if keepLow {
				lsort.MergeLow(buf, keys, other)
			} else {
				lsort.MergeHigh(buf, keys, other)
			}
			copy(keys, buf)
			ctx.Charge(m.Compute.MergeTime(len(keys)))
		}
	}
}

// exchange ships this processor's run to its partner under the configured
// granularity and synchronization regime and returns the partner's run
// payload. The returned slice is scratch (or an engine delivery buffer):
// decode it before the next exchange.
func exchange(ctx *bsplib.Context, keys []uint32, cfg Config, partner int, sc *exchScratch) []byte {
	v, barrierEvery := cfg.Variant, cfg.BarrierEvery
	// The run is encoded into program-owned scratch rather than a leased
	// payload buffer: the chunked regimes below send slices of it across
	// several synchronizations, and the engine only requires payload bytes
	// to stay intact until the sync that delivers each message - this
	// buffer is not touched again until the next exchange call.
	pay := wire.AppendUint32s(sc.pay[:0], keys)
	sc.pay = pay
	if v == Word && cfg.WordsPerMsg > 1 {
		return exchangeChunked(ctx, pay, cfg.WordsPerMsg, partner, sc)
	}
	recv := func() []byte {
		got := ctx.RecvFrom(partner, tagX)
		if got == nil {
			panic(fmt.Sprintf("bitonic: processor %d missing exchange from %d", ctx.ID(), partner))
		}
		return got
	}
	switch {
	case v == Block:
		ctx.Send(partner, tagX, pay)
		ctx.Sync()
		return recv()
	case barrierEvery <= 0 || barrierEvery*ctx.WordBytes() >= len(pay):
		// Unsynchronized (or small enough to be a single chunk): one step.
		ctx.SendWords(partner, tagX, pay)
		if barrierEvery > 0 {
			ctx.Sync()
		} else {
			ctx.Flush()
		}
		return recv()
	default:
		// Synchronized variant: a barrier after every barrierEvery words,
		// reassembling the partner's run from the chunks. Each chunk is a
		// slice of the scratch-encoded run; the delivered chunk must be
		// copied out (append below) before the Sync of the next chunk
		// invalidates the delivery buffer.
		chunkBytes := barrierEvery * ctx.WordBytes()
		got := sc.got[:0]
		for off := 0; off < len(pay); off += chunkBytes {
			end := off + chunkBytes
			if end > len(pay) {
				end = len(pay)
			}
			ctx.SendWords(partner, tagX, pay[off:end])
			ctx.Sync()
			got = append(got, recv()...)
		}
		sc.got = got
		return got
	}
}

// exchangeChunked ships the run as fixed-size messages of wordsPerMsg
// machine words each, all within one synchronous step, and reassembles the
// partner's run. This is the conclusions' "fixed size short messages,
// larger than one computational word" regime.
func exchangeChunked(ctx *bsplib.Context, pay []byte, wordsPerMsg, partner int, sc *exchScratch) []byte {
	chunkBytes := wordsPerMsg * ctx.WordBytes()
	for off := 0; off < len(pay); off += chunkBytes {
		end := off + chunkBytes
		if end > len(pay) {
			end = len(pay)
		}
		ctx.Send(partner, tagX, pay[off:end])
	}
	ctx.Sync()
	got := sc.got[:0]
	for _, m := range ctx.RecvMsgs() {
		if m.Src == partner && m.Tag == tagX {
			got = append(got, m.Payload...)
		}
	}
	sc.got = got
	if len(got) != len(pay) {
		panic(fmt.Sprintf("bitonic: processor %d reassembled %d of %d bytes", ctx.ID(), len(got), len(pay)))
	}
	return got
}
