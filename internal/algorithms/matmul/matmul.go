// Package matmul implements the distributed matrix multiplication of
// Section 4.1 of the paper: the communication-optimal q x q x q
// decomposition (after Aggarwal/Chandra/Snir, adapted to BSP by Cheatham et
// al.), in three variants:
//
//   - BSP with word-granularity traffic, either convergent ("unstaggered":
//     every replication group floods one destination first - the schedule
//     whose receiver contention breaks the BSP prediction on the CM-5,
//     Fig 4) or staggered (each round of destinations is a permutation);
//   - MP-BSP on the MasPar: the same staggered word-stream program under
//     the engine's SIMD one-word-per-step discipline;
//   - MP-BPRAM: 3q synchronous block-permutation steps moving N^2/P words
//     each, one message sent and one received per processor per step.
//
// The implementations move real matrix data and are verified against the
// sequential kernel; simulated time comes out of the machine model.
package matmul

import (
	"fmt"

	"quantpar/internal/bsplib"
	"quantpar/internal/linalg"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
	"quantpar/internal/wire"
)

// Variant selects the algorithm version.
type Variant int

const (
	// BSPUnstaggered sends to destinations in index order: all processors
	// of a replication group target the same processor first.
	BSPUnstaggered Variant = iota
	// BSPStaggered rotates each processor's destination order by its free
	// coordinate, making every send round a permutation.
	BSPStaggered
	// BPRAM uses 3q synchronous block-permutation steps.
	BPRAM
)

func (v Variant) String() string {
	switch v {
	case BSPUnstaggered:
		return "bsp-unstaggered"
	case BSPStaggered:
		return "bsp-staggered"
	case BPRAM:
		return "mp-bpram"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Config parameterizes a run.
type Config struct {
	N       int // matrix dimension
	Q       int // processor cube side; the run uses q^3 processors
	Variant Variant
	Seed    uint64
	// Verify compares the distributed product against the sequential
	// reference and records the maximum absolute error.
	Verify bool
	// Trace, when non-nil, records the superstep timeline of the run.
	Trace *trace.Recorder
}

// Result reports a run.
type Result struct {
	Run *bsplib.RunResult
	// MaxErr is the largest absolute deviation from the sequential
	// product (set only when Verify was requested).
	MaxErr float64
	// Mflops is the achieved simulated floating-point rate with the
	// paper's convention of 2*N^3 flops per multiplication.
	Mflops float64
}

// Message tags. The C slabs use tagC+l to address the destination slab.
const (
	tagA = 1
	tagB = 2
	tagC = 16
)

type layout struct {
	n, q       int
	blkR, blkC int // subblock shape: N/q^2 x N/q
}

func (ly layout) pid(i, j, k int) int { return (i*ly.q+j)*ly.q + k }

func (ly layout) coords(id int) (i, j, k int) {
	return id / (ly.q * ly.q), (id / ly.q) % ly.q, id % ly.q
}

// subblockInto copies A_ij^k (row slab k of the (i,j) submatrix) into dst.
func (ly layout) subblockInto(dst *linalg.Mat, mat *linalg.Mat, i, j, k int) {
	mat.BlockInto(dst, i*ly.blkC+k*ly.blkR, j*ly.blkC)
}

// storeC adds slab into global C block (i, j), row slab k.
func (ly layout) storeC(out *linalg.Mat, i, j, k int, slab linalg.Mat) {
	r0 := i*ly.blkC + k*ly.blkR
	c0 := j * ly.blkC
	for rr := 0; rr < slab.Rows; rr++ {
		for cc := 0; cc < slab.Cols; cc++ {
			out.Data[(r0+rr)*out.Cols+c0+cc] += slab.At(rr, cc)
		}
	}
}

// Run executes the configured variant on machine m.
func Run(m *machine.Machine, cfg Config) (*Result, error) {
	q := cfg.Q
	if q < 1 || q*q*q > m.P() {
		return nil, fmt.Errorf("matmul: q=%d needs %d processors, machine has %d", q, q*q*q, m.P())
	}
	if cfg.N <= 0 || cfg.N%(q*q) != 0 {
		return nil, fmt.Errorf("matmul: N=%d not divisible by q^2=%d", cfg.N, q*q)
	}
	ly := layout{n: cfg.N, q: q, blkR: cfg.N / (q * q), blkC: cfg.N / q}

	rng := sim.NewRNG(cfg.Seed ^ 0xA1B2)
	a := linalg.NewMat(cfg.N, cfg.N).Random(rng)
	b := linalg.NewMat(cfg.N, cfg.N).Random(rng)
	out := linalg.NewMat(cfg.N, cfg.N)

	var prog bsplib.Program
	opts := bsplib.Options{Seed: cfg.Seed, Trace: cfg.Trace}
	if cfg.Variant == BPRAM {
		prog = bpramProgram(m, ly, a, b, out)
		opts.Discipline = bsplib.DisciplineMPBPRAM
	} else {
		prog = wordProgram(m, ly, cfg.Variant, a, b, out)
	}
	res, err := bsplib.Run(m, prog, opts)
	if err != nil {
		return nil, err
	}

	r := &Result{Run: res}
	flops := 2 * float64(cfg.N) * float64(cfg.N) * float64(cfg.N)
	r.Mflops = flops / res.Time // flops per microsecond == Mflops
	if cfg.Verify {
		ref := linalg.MatMul(a, b)
		r.MaxErr = linalg.MaxAbsDiff(ref, out)
	}
	return r, nil
}

// wordProgram is the BSP / MP-BSP implementation: four supersteps, word
// streams, staggered or convergent destination order.
func wordProgram(m *machine.Machine, ly layout, v Variant, a, b, out *linalg.Mat) bsplib.Program {
	q := ly.q
	return func(ctx *bsplib.Context) {
		id := ctx.ID()
		if id >= q*q*q {
			return
		}
		i, j, k := ly.coords(id)
		var sc encScratch
		var ws workspace
		ws.init(ly)
		ly.subblockInto(&ws.myA, a, i, j, k)
		ly.subblockInto(&ws.myB, b, i, j, k)
		aPay := sc.encode(ctx, m, ws.myA.Data)
		bPay := sc.encode(ctx, m, ws.myB.Data)

		// Superstep 1: replicate A_ij^k over <i,j,*> and B_ij^k over
		// <*,i,j>. Free coordinate of both destination families is k, so
		// staggering rotates by k.
		for r := 0; r < q; r++ {
			l := r
			if v == BSPStaggered {
				l = (k + r) % q
			}
			if d := ly.pid(i, j, l); d != id {
				ctx.SendWords(d, tagA, aPay)
			}
			if d := ly.pid(l, i, j); d != id {
				ctx.SendWords(d, tagB, bPay)
			}
		}
		ctx.Sync()

		// Assemble A_ij and B_jk.
		aFull := &ws.aFull
		aFull.SetBlock(k*ly.blkR, 0, &ws.myA)
		for l := 0; l < q; l++ {
			if l == k {
				continue
			}
			pay := ctx.RecvFrom(ly.pid(i, j, l), tagA)
			if pay == nil {
				panic(fmt.Sprintf("matmul: processor %d missing A slab from %d", id, ly.pid(i, j, l)))
			}
			aFull.SetBlock(l*ly.blkR, 0, sc.slabOf(m, pay, ly))
		}
		bFull := &ws.bFull
		for l := 0; l < q; l++ {
			src := ly.pid(j, k, l)
			if src == id {
				bFull.SetBlock(l*ly.blkR, 0, &ws.myB)
				continue
			}
			pay := ctx.RecvFrom(src, tagB)
			if pay == nil {
				panic(fmt.Sprintf("matmul: processor %d missing B slab from %d", id, src))
			}
			bFull.SetBlock(l*ly.blkR, 0, sc.slabOf(m, pay, ly))
		}

		// Superstep 2: local multiply (chat starts zeroed in the fresh
		// workspace, so the add form computes the plain product).
		chat := &ws.chat
		linalg.MatMulAdd(chat, aFull, bFull)
		ctx.Charge(m.Compute.MatMulTime(ly.blkC, ly.blkC, ly.blkC))

		// Superstep 3: route slab l of C_hat to <i,k,l>. The free sender
		// coordinate for destination family <i,k,*> is j, so staggering
		// rotates by j. All outgoing slabs encode into one leased arena
		// buffer - sub-slices never move because the lease is pre-sized for
		// all q encodings.
		cArena := ctx.PayloadBuf(q * ly.blkR * ly.blkC * m.WordBytes)[:0]
		for r := 0; r < q; r++ {
			l := r
			if v == BSPStaggered {
				l = (j + r) % q
			}
			slab := chat.RowSpan(l*ly.blkR, ly.blkR)
			if d := ly.pid(i, k, l); d != id {
				start := len(cArena)
				cArena = sc.appendEnc(m, cArena, slab.Data)
				ctx.SendWords(d, tagC+l, cArena[start:len(cArena):len(cArena)])
			} else {
				// k == j and l == k: own contribution to C_ij^k.
				ly.storeC(out, i, k, l, slab)
			}
		}
		ctx.Sync()

		// Superstep 4: this processor is <i,j,k> == destination <i',k',l>
		// with i'=i, k'=j, l=k; sum the slabs from <i, j', j> over j'.
		acc := &ws.acc
		ops := 0
		for jp := 0; jp < q; jp++ {
			src := ly.pid(i, jp, j)
			if src == id {
				continue
			}
			pay := ctx.RecvFrom(src, tagC+k)
			if pay == nil {
				panic(fmt.Sprintf("matmul: processor %d missing C slab from %d", id, src))
			}
			data := sc.decode(m, pay)
			for x, vv := range data {
				acc.Data[x] += vv
			}
			ops += len(data)
		}
		ctx.ChargeOps(ops)
		ly.storeC(out, i, j, k, ws.acc)
	}
}

// bpramProgram is the MP-BPRAM implementation: 3q synchronous block
// permutation steps (q rounds per phase, each round a permutation).
func bpramProgram(m *machine.Machine, ly layout, a, b, out *linalg.Mat) bsplib.Program {
	q := ly.q
	return func(ctx *bsplib.Context) {
		id := ctx.ID()
		if id >= q*q*q {
			return
		}
		i, j, k := ly.coords(id)
		var sc encScratch
		var ws workspace
		ws.init(ly)
		ly.subblockInto(&ws.myA, a, i, j, k)
		ly.subblockInto(&ws.myB, b, i, j, k)
		myA, myB := &ws.myA, &ws.myB

		aFull := &ws.aFull
		aFull.SetBlock(k*ly.blkR, 0, myA)
		// A phase: round r sends A_ij^k to <i,j,(k+r)%q>; the incoming
		// slab is A_ij^{(k-r)%q} from <i,j,(k-r)%q>. The slab is re-encoded
		// each round (byte-identical every time): payload buffers are leased
		// until the next Sync, so one encoding cannot be carried across the
		// round barrier.
		for r := 1; r < q; r++ {
			ctx.Send(ly.pid(i, j, (k+r)%q), tagA, sc.encode(ctx, m, myA.Data))
			ctx.Sync()
			src := ly.pid(i, j, ((k-r)%q+q)%q)
			pay := ctx.RecvFrom(src, tagA)
			if pay == nil {
				panic(fmt.Sprintf("matmul: processor %d missing A slab from %d in round %d", id, src, r))
			}
			aFull.SetBlock((((k-r)%q+q)%q)*ly.blkR, 0, sc.slabOf(m, pay, ly))
		}

		// B phase: round r sends B_ij^k to <(k+r)%q, i, j>; the incoming
		// slab in round r arrives from <j, k, (i-r)%q> and is B_jk^{(i-r)%q}.
		bFull := &ws.bFull
		for r := 0; r < q; r++ {
			d := ly.pid((k+r)%q, i, j)
			if d != id {
				ctx.Send(d, tagB, sc.encode(ctx, m, myB.Data))
			}
			ctx.Sync()
			l := ((i-r)%q + q) % q
			src := ly.pid(j, k, l)
			if src == id {
				bFull.SetBlock(l*ly.blkR, 0, myB)
				continue
			}
			pay := ctx.RecvFrom(src, tagB)
			if pay == nil {
				panic(fmt.Sprintf("matmul: processor %d missing B slab from %d in round %d", id, src, r))
			}
			bFull.SetBlock(l*ly.blkR, 0, sc.slabOf(m, pay, ly))
		}

		chat := &ws.chat
		linalg.MatMulAdd(chat, aFull, bFull)
		ctx.Charge(m.Compute.MatMulTime(ly.blkC, ly.blkC, ly.blkC))

		// C phase: round r sends slab l=(j+r)%q to <i,k,l>; the incoming
		// slab is C-slab k from <i,(k-r)%q,j>.
		acc := &ws.acc
		ops := 0
		for r := 0; r < q; r++ {
			l := (j + r) % q
			slab := chat.RowSpan(l*ly.blkR, ly.blkR)
			d := ly.pid(i, k, l)
			if d != id {
				ctx.Send(d, tagC+l, sc.encode(ctx, m, slab.Data))
			} else {
				ly.storeC(out, i, k, l, slab)
			}
			ctx.Sync()
			src := ly.pid(i, ((k-r)%q+q)%q, j)
			if src == id {
				continue
			}
			pay := ctx.RecvFrom(src, tagC+k)
			if pay == nil {
				panic(fmt.Sprintf("matmul: processor %d missing C slab from %d in round %d", id, src, r))
			}
			data := sc.decode(m, pay)
			for x, vv := range data {
				acc.Data[x] += vv
			}
			ops += len(data)
		}
		ctx.ChargeOps(ops)
		ly.storeC(out, i, j, k, ws.acc)
	}
}

// workspace fuses every per-processor matrix of one kernel invocation -
// local subblocks, assembled operands, local product, accumulator - into a
// single backing allocation carved into views.
type workspace struct {
	myA, myB, aFull, bFull, chat, acc linalg.Mat
	backing                           []float64
}

func (ws *workspace) init(ly layout) {
	slab := ly.blkR * ly.blkC
	full := ly.blkC * ly.blkC
	ws.backing = make([]float64, 3*slab+3*full)
	d := ws.backing
	carve := func(rows, cols int) linalg.Mat {
		m := linalg.Mat{Rows: rows, Cols: cols, Data: d[: rows*cols : rows*cols]}
		d = d[rows*cols:]
		return m
	}
	ws.myA = carve(ly.blkR, ly.blkC)
	ws.myB = carve(ly.blkR, ly.blkC)
	ws.aFull = carve(ly.blkC, ly.blkC)
	ws.bFull = carve(ly.blkC, ly.blkC)
	ws.chat = carve(ly.blkC, ly.blkC)
	ws.acc = carve(ly.blkR, ly.blkC)
}

// encScratch is per-processor encode/decode scratch. Each processor
// goroutine owns one instance, so the kernels encode every outgoing slab
// into a payload buffer leased from the context and decode every incoming
// slab into one reused staging slice - the steady-state data path performs
// no per-message allocation.
type encScratch struct {
	f32   []float32 // float32 staging on 4-byte-word machines
	dec32 []float32
	dec   []float64
	slab  linalg.Mat // reused header for slabOf views
}

// encode converts float64 values to the machine's wire word (float32 on
// 4-byte-word machines, float64 on 8-byte ones), writing into a buffer
// leased from ctx (valid until the processor's next synchronization).
func (s *encScratch) encode(ctx *bsplib.Context, m *machine.Machine, xs []float64) []byte {
	return s.appendEnc(m, ctx.PayloadBuf(m.WordBytes * len(xs))[:0], xs)
}

// appendEnc appends the wire encoding of xs to dst, allowing several slabs
// to share one leased arena buffer.
func (s *encScratch) appendEnc(m *machine.Machine, dst []byte, xs []float64) []byte {
	if m.WordBytes == 8 {
		return wire.AppendFloat64s(dst, xs)
	}
	f := s.f32
	if cap(f) < len(xs) {
		f = make([]float32, 0, len(xs))
	} else {
		f = f[:0]
	}
	for _, x := range xs {
		f = append(f, float32(x))
	}
	s.f32 = f
	return wire.AppendFloat32s(dst, f)
}

// decode is the inverse of encode. The returned slice is scratch, valid
// only until the next decode call on this processor.
func (s *encScratch) decode(m *machine.Machine, b []byte) []float64 {
	if m.WordBytes == 8 {
		s.dec = wire.Float64sInto(s.dec, b)
		return s.dec
	}
	s.dec32 = wire.Float32sInto(s.dec32, b)
	dst := s.dec
	if cap(dst) < len(s.dec32) {
		dst = make([]float64, len(s.dec32))
	} else {
		dst = dst[:len(s.dec32)]
	}
	for i, v := range s.dec32 {
		dst[i] = float64(v)
	}
	s.dec = dst
	return dst
}

// slabOf wraps a decoded payload as a blkR x blkC matrix view. The view
// aliases decode scratch: consume it (SetBlock copies) before decoding the
// next payload.
func (s *encScratch) slabOf(m *machine.Machine, pay []byte, ly layout) *linalg.Mat {
	s.slab = linalg.Mat{Rows: ly.blkR, Cols: ly.blkC, Data: s.decode(m, pay)}
	return &s.slab
}
