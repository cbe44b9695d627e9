// Package bsplib is the parallel programming library of this reproduction:
// a superstep (BSP-style) execution engine that runs P-processor programs
// on a simulated machine. Programs are ordinary Go functions, one per
// simulated processor, which the engine runs as coroutines: every superstep
// it resumes each processor until the processor synchronizes. On a large
// machine the processors are split into lanes, contiguous index ranges
// that helper goroutines resume on idle CPUs while the goroutine that
// called Run resumes the first; that goroutine then checks, prices and
// delivers the step in processor order, so results do not depend on the
// lanes. Programs compute real results on real data while the engine
// accounts simulated time - local computation through the machine's
// compute model, communication through its router simulator.
//
// The engine supports the programming disciplines the paper's algorithms
// use:
//
//   - BSP supersteps: arbitrary sends followed by Sync (a barrier);
//   - MP-BSP word streams on SIMD machines: SendWords traffic is priced as
//     a sequence of synchronous one-word communication steps, matching the
//     MasPar's one-outstanding-message-per-PE restriction;
//   - MP-BPRAM block steps: single long messages, optionally checked
//     against the model's one-send/one-receive-per-step rule;
//   - unsynchronized steps (Flush) on MIMD machines, where processors keep
//     their clock skews - the mode in which the GCel drifts out of sync.
package bsplib

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"quantpar/internal/comm"
	"quantpar/internal/machine"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
)

// Program is the per-processor body of a parallel program. It runs once on
// every simulated processor.
type Program func(ctx *Context)

// Discipline selects the communication rules the engine enforces.
type Discipline int

const (
	// DisciplineNone performs no checking (BSP and MP-BSP programs).
	DisciplineNone Discipline = iota
	// DisciplineMPBPRAM enforces the Message-Passing Block PRAM rule: in
	// every communication step each processor sends at most one message
	// and receives at most one message.
	DisciplineMPBPRAM
)

// Options configure a run.
type Options struct {
	Discipline Discipline
	// Seed drives every stochastic component of the run (router jitter and
	// program-level randomness via Context.RNG).
	Seed uint64
	// Trace, when non-nil, records a per-superstep execution timeline.
	Trace *trace.Recorder
}

// RunResult reports a simulated execution.
type RunResult struct {
	// Time is the simulated makespan in microseconds.
	Time sim.Time
	// ComputeTime sums the per-superstep maxima of charged local
	// computation; CommTime is the rest of the makespan.
	ComputeTime sim.Time
	CommTime    sim.Time
	// CommSteps counts priced communication steps; on SIMD machines each
	// word step of a stream counts individually.
	CommSteps  int
	Supersteps int
	Stats      comm.Stats
	// PatternCacheHits counts communication steps replayed from the phase
	// memo cache during this run (each repeated word step of a SIMD stream
	// interval counts individually).
	PatternCacheHits int
}

type outMsg struct {
	dst     int
	tag     int
	payload []byte
	stream  bool
}

// parts returns the number of messages m is priced as on a MIMD machine:
// one per w-byte word of a stream, one for a block.
func (m outMsg) parts(w int) int {
	if m.stream {
		return (len(m.payload) + w - 1) / w
	}
	return 1
}

// worker is a coroutine that runs one processor's program after another
// (see newWorker). next resumes ctx's program until it synchronizes
// (synced, through yield) or returns; ok is false only once a program has
// ended the coroutine with runtime.Goexit.
type worker struct {
	next      func() (synced, ok bool)
	yield     func(synced bool) bool
	ctx       *Context
	inProgram bool
}

// workers holds the idle workers, as many as ever ran at once: a
// sync.Pool would drop them without ending their coroutines. Reuse keeps
// race builds bounded, since the race detector never frees the state of
// an exited coroutine (about 140 KB for a MasPar APSP processor).
var workers struct {
	sync.Mutex
	idle []*worker
}

// minLaneProcs is the fewest live processors a lane resumes, so a step
// runs in lanes only from 2 × minLaneProcs live processors on. A resume
// costs about 0.25 µs (an iter.Pull round trip), and a lane handed to a
// helper adds the hand-off and the cache misses of the step's later
// passes over processors another CPU resumed. An empty step on a fake
// SIMD router took, in one lane and in two (median of 21 Runs of 400
// steps, 2-vCPU VM, Go 1.24): 14 and 20 µs at P = 64, 33 and 32 µs at
// P = 128, 63 and 57 µs at P = 256, 139 and 112 µs at P = 512. Two lanes
// break even near 64 processors each and gain from 128.
const minLaneProcs = 128

// heldHelpers counts the helper goroutines that running Runs hold. A Run
// takes helpers without waiting and only while fewer than GOMAXPROCS-1
// are held, so a lone Run gets the idle CPUs and Runs that already keep
// every CPU busy, as parallel sweeps do, get few or none.
var heldHelpers atomic.Int32

// takeHelpers takes up to want helpers from the pool and returns how many
// it took.
func takeHelpers(want int) int {
	for {
		held := heldHelpers.Load()
		k := min(int32(want), int32(runtime.GOMAXPROCS(0)-1)-held)
		if k <= 0 {
			return 0
		}
		if heldHelpers.CompareAndSwap(held, held+k) {
			return int(k)
		}
	}
}

// engine is the state of one run. Only the goroutine that called Run
// touches it, apart from the lanes: while a step's lanes run, each
// processor's Context is touched only by the goroutine that resumes it,
// and helpers only read the engine. A processor's program runs only while
// it is resumed, so the engine reads and resets a Context's outbox,
// compute charge and inbox between two resumptions.
type engine struct {
	m    *machine.Machine
	n    int
	opt  Options
	prog Program

	ctxs     []Context // the processors, in index order
	live     []int     // the processors whose programs have not ended, in index order
	err      error
	stopping bool // Run is unwinding the programs still running

	// Lanes (see resume). Each step in lanes is a turn of the helpers:
	// the high 32 bits of turn count the turns, the low 32 hold the
	// turn's lane count, 0 to stop the helpers. Helper j runs lane j of
	// every turn with more than j lanes.
	helpers int
	turn    atomic.Uint64
	pending atomic.Int32 // helper lanes of the current step still running
	goexit  atomic.Bool  // a program ended a helper with runtime.Goexit
	helping sync.WaitGroup

	clocks []sim.Time

	// Delivery arenas, used in turn: step k's payloads are copied into
	// arenas[cur] and stay intact while step k+1's are copied into the
	// other one, so a program may forward a received slice verbatim. No
	// receiver holds a view of step k past step k+1's synchronization
	// (Recv slices are valid only until the next one).
	arenas [2][]byte
	cur    int

	// Step-building scratch, reused across supersteps so that steady-state
	// routing performs no per-step allocation.
	stepBuf    comm.Step
	sendsBuf   [][]comm.Msg
	offsetsBuf []sim.Time
	runsBuf    [][]streamRun
	boundaries []int
	cursor     []int
	inDeg      []int

	stepIdx int
	rng     *sim.RNG
	res     RunResult
}

// Run executes prog on machine m and returns the simulated timing. Run is
// deterministic for fixed (machine, program, options), failures included:
// a failed run returns the error of its first failing step, and within a
// step that of the lowest-numbered failing processor. The errors are
//   - "bsplib: step N: %w" for a router failure (*faults.DeliveryError,
//     *sim.DeadlineError, topology.ErrPartitioned);
//   - "bsplib: processor P: %w" for a program panic, wrapping the panic
//     value if it is an error and "panic: <value>" otherwise;
//   - an error naming the step for Sync/Flush disagreement, an MP-BPRAM
//     violation, or word streams mixed with blocks on a SIMD machine;
//   - a "bsplib: " error for a nil machine, a machine without a router or
//     compute model or with a word size below one byte, a nil program or
//     an unknown discipline, returned before any processor starts.
//
// The processors run as coroutines. The goroutine that called Run resumes
// them, and on a machine of 256 processors or more up to GOMAXPROCS-1
// helper goroutines, shared with every other running Run, resume
// contiguous ranges of them at the same time; Run waits for its helpers
// to exit before it returns. Programs of one Run may therefore run
// in parallel between two synchronizations, and must not share memory that
// one of them writes in that time. A program that calls runtime.Goexit
// (t.FailNow does) ends the goroutine that called Run, in whichever lane it
// runs; Run unwinds the other processors before it goes. The coroutines
// serve one run after another, so Run must not be called on a goroutine
// locked to its thread (runtime.LockOSThread).
func Run(m *machine.Machine, prog Program, opt Options) (*RunResult, error) {
	switch {
	case m == nil:
		return nil, errors.New("bsplib: nil machine")
	case m.Router == nil:
		return nil, errors.New("bsplib: machine has no router")
	case m.Compute == nil:
		return nil, errors.New("bsplib: machine has no compute model")
	case m.WordBytes <= 0:
		return nil, fmt.Errorf("bsplib: machine word size %d bytes, want at least 1", m.WordBytes)
	case prog == nil:
		return nil, errors.New("bsplib: nil program")
	case opt.Discipline != DisciplineNone && opt.Discipline != DisciplineMPBPRAM:
		return nil, fmt.Errorf("bsplib: unknown discipline %d", opt.Discipline)
	}
	n := m.P()
	e := &engine{
		m:          m,
		n:          n,
		opt:        opt,
		prog:       prog,
		ctxs:       make([]Context, n),
		live:       make([]int, n),
		clocks:     make([]sim.Time, n),
		sendsBuf:   make([][]comm.Msg, n),
		offsetsBuf: make([]sim.Time, n),
		runsBuf:    make([][]streamRun, n),
		cursor:     make([]int, n),
		inDeg:      make([]int, n),
		rng:        sim.NewRNG(opt.Seed ^ 0x5a17ed),
	}

	// Rewind the machine's fault clock (if any) so every run sees the same
	// fault schedule from simulated time zero; this is what makes a faulty
	// run repeatable and independent of earlier runs on the same machine.
	if m.Net != nil {
		m.Net.ResetFaultClock()
	}

	// Give every processor a worker, and send and receive scratch for 16
	// messages, carved from one backing each, so typical first supersteps
	// skip the append-doubling allocations. The caps keep a processor's
	// appends off its neighbour's entries.
	outs := make([]outMsg, 16*n)
	ins := make([]Message, 16*n)
	workers.Lock()
	for p := range e.ctxs {
		c := &e.ctxs[p]
		c.e, c.id = e, p
		e.live[p] = p
		c.rng = *e.rng.Split(uint64(0xC0FFEE + p))
		c.outbox = outs[16*p : 16*p : 16*p+16]
		c.inbox = ins[16*p : 16*p : 16*p+16]
		if k := len(workers.idle) - 1; k >= 0 {
			c.w, workers.idle = workers.idle[k], workers.idle[:k]
		} else {
			c.w = newWorker()
		}
		c.w.ctx = c
	}
	workers.Unlock()
	defer e.release()
	e.startHelpers()
	for e.step() > 0 && e.err == nil {
	}
	if e.err != nil {
		return nil, e.err
	}
	// Residual compute after the last sync extends the makespan.
	maxResidual := sim.Time(0)
	maxClock := sim.Time(0)
	for p := range e.ctxs {
		c := e.ctxs[p].compute
		e.clocks[p] += c
		maxResidual = max(maxResidual, c)
		maxClock = max(maxClock, e.clocks[p])
	}
	e.res.ComputeTime += maxResidual
	e.res.Time = maxClock
	e.res.CommTime = e.res.Time - e.res.ComputeTime
	return &e.res, nil
}

// startHelpers takes a helper for each further lane the machine allows
// from the pool, as many as it can without waiting, and starts them.
func (e *engine) startHelpers() {
	e.helpers = takeHelpers(e.n/minLaneProcs - 1)
	e.helping.Add(e.helpers)
	for j := 1; j <= e.helpers; j++ {
		go e.help(j)
	}
}

// publish starts the next turn of the helpers, with the given lane count.
func (e *engine) publish(lanes int) {
	e.turn.Store((e.turn.Load()>>32+1)<<32 | uint64(lanes))
}

// help runs lane j of every turn that has one, spinning between turns: a
// blocking hand-off costs as much as the lane saves. A program that calls
// runtime.Goexit ends this goroutine; help then tells the engine, which
// ends the goroutine that called Run.
func (e *engine) help(j int) {
	inLane := false
	defer func() {
		if inLane {
			e.goexit.Store(true)
			e.pending.Add(-1)
		}
		e.helping.Done()
	}()
	for seen := uint64(0); ; {
		t := e.turn.Load()
		if t == seen {
			runtime.Gosched()
			continue
		}
		seen = t
		lanes := int(uint32(t))
		if lanes == 0 {
			return
		}
		if j < lanes {
			inLane = true
			e.resumeLane(j, lanes)
			inLane = false
			e.pending.Add(-1)
		}
	}
}

// release stops the helpers, once their lanes of the current step are
// done, and gives them back. Then it unwinds every program still running
// - after a failure, those that synchronized on the failing step, resumed
// again if they recover the unwinding panic and synchronize again - and
// gives the workers back, all but those whose program ended its coroutine
// with runtime.Goexit.
func (e *engine) release() {
	for e.pending.Load() > 0 {
		runtime.Gosched()
	}
	if e.helpers > 0 {
		e.publish(0)
		e.helping.Wait()
		heldHelpers.Add(-int32(e.helpers))
	}

	e.stopping = true
	for p := range e.ctxs {
		w := e.ctxs[p].w
		ok := true
		for ok && w.inProgram {
			_, ok = w.next()
		}
		if w.ctx = nil; ok {
			workers.Lock()
			workers.idle = append(workers.idle, w)
			workers.Unlock()
		}
	}
}

// panicError turns a recovered panic value into an error, keeping error
// values matchable with errors.As and errors.Is.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// step resumes every processor whose program has not ended, each until it
// synchronizes or its program ends, and returns how many synchronized.
// Then, in processor order, it drops the ended programs from the live
// list, takes the first program panic as the run's error, and checks,
// prices and delivers the step the synchronized processors filed.
func (e *engine) step() (live int) {
	e.resume()
	barrier := false
	for _, p := range e.live {
		c := &e.ctxs[p]
		if !c.synced {
			// An ended program's unsynchronized sends are dropped; the
			// compute it charged after its last sync stays in c.compute,
			// which still occupies its processor.
			c.outbox = nil
			if e.err == nil {
				e.err = c.err
			}
			continue
		}
		if live == 0 {
			barrier = c.barrier
		} else if c.barrier != barrier && e.err == nil {
			e.err = fmt.Errorf("bsplib: processors disagree on step type (barrier vs flush) at step %d", e.stepIdx)
		}
		e.live[live] = p
		live++
	}
	e.live = e.live[:live]
	if e.err == nil && live > 0 {
		e.route(barrier)
	}
	return live
}

// resume resumes every live processor until it synchronizes or its
// program ends. With enough live processors and helpers it splits them
// into lanes with equal numbers of live processors: this goroutine resumes
// the first lane and the helpers the others, at the same time. A
// runtime.Goexit in a helper's lane is repeated here once every lane is
// done.
func (e *engine) resume() {
	lanes := min(e.helpers+1, len(e.live)/minLaneProcs)
	if lanes <= 1 {
		e.resumeLane(0, 1)
		return
	}
	e.pending.Store(int32(lanes - 1))
	e.publish(lanes)
	e.resumeLane(0, lanes)
	for e.pending.Load() > 0 {
		runtime.Gosched()
	}
	if e.goexit.Load() {
		runtime.Goexit()
	}
}

// resumeLane resumes the processors of lane j of lanes.
func (e *engine) resumeLane(j, lanes int) {
	n := len(e.live)
	for _, p := range e.live[j*n/lanes : (j+1)*n/lanes] {
		c := &e.ctxs[p]
		c.synced, _ = c.w.next()
	}
}

// route prices and delivers the gathered step. A router fails by panicking
// inside Route (see Run); the panic is recovered here as the run's error.
func (e *engine) route(barrier bool) {
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("bsplib: step %d: %w", e.stepIdx, panicError(r))
		}
	}()
	e.res.Supersteps++
	wallBefore := slices.Max(e.clocks)
	commStepsBefore := e.res.CommSteps

	// Local computation: SIMD machines run in lockstep, so every step
	// costs the maximum charge; MIMD machines advance each clock by its
	// own charge (skews persist until a barrier).
	maxC := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.ctxs[p].compute > maxC {
			maxC = e.ctxs[p].compute
		}
	}
	e.res.ComputeTime += maxC
	if e.m.SIMD {
		for p := 0; p < e.n; p++ {
			e.clocks[p] = wallBefore + maxC
			e.ctxs[p].compute = 0
		}
	} else {
		for p := 0; p < e.n; p++ {
			e.clocks[p] += e.ctxs[p].compute
			e.ctxs[p].compute = 0
		}
	}

	if e.err = e.checkDiscipline(); e.err != nil {
		return
	}

	if e.m.SIMD {
		e.routeSIMD()
	} else {
		e.routeMIMD(barrier)
	}
	if e.err != nil {
		return
	}
	if e.opt.Trace != nil {
		e.recordTrace(barrier, maxC, wallBefore, commStepsBefore)
	}
	e.deliver()
	e.stepIdx++
}

// recordTrace appends this step's timeline record, before delivery clears
// the outboxes.
func (e *engine) recordTrace(barrier bool, maxC, wallBefore sim.Time, commStepsBefore int) {
	rec := trace.Superstep{
		Barrier:   barrier,
		Compute:   maxC,
		CommSteps: e.res.CommSteps - commStepsBefore,
	}
	rec.Wall = slices.Max(e.clocks) - wallBefore
	in := e.inDeg
	clear(in)
	for src := 0; src < e.n; src++ {
		for _, m := range e.ctxs[src].outbox {
			rec.Msgs++
			rec.Bytes += len(m.payload)
			in[m.dst]++
		}
	}
	for p := 0; p < e.n; p++ {
		out := len(e.ctxs[p].outbox)
		if out > rec.H {
			rec.H = out
		}
		if in[p] > rec.H {
			rec.H = in[p]
		}
		if out > 0 || in[p] > 0 {
			rec.Active++
		}
	}
	e.opt.Trace.Record(rec)
}

// checkDiscipline validates the MP-BPRAM one-send/one-receive rule.
func (e *engine) checkDiscipline() error {
	if e.opt.Discipline != DisciplineMPBPRAM {
		return nil
	}
	in := e.inDeg
	clear(in)
	for src := 0; src < e.n; src++ {
		if len(e.ctxs[src].outbox) > 1 {
			return fmt.Errorf("bsplib: MP-BPRAM violation at step %d: processor %d sends %d messages",
				e.stepIdx, src, len(e.ctxs[src].outbox))
		}
		for _, m := range e.ctxs[src].outbox {
			in[m.dst]++
			if in[m.dst] > 1 {
				return fmt.Errorf("bsplib: MP-BPRAM violation at step %d: processor %d receives more than one message",
					e.stepIdx, m.dst)
			}
		}
	}
	return nil
}

// routeMIMD prices the step on an asynchronous machine, expanding
// word streams into individual word messages in send order. The step is
// built in engine-owned scratch; routers may hold views into it only until
// their next Route call (they all reset per call). Each processor's send
// list is sized once per step, to its exact message count, and reused
// while it is large enough: a word stream expands to thousands of
// messages, and growing the list by append would copy it about 20 times.
func (e *engine) routeMIMD(barrier bool) {
	w := e.m.WordBytes
	sends := e.sendsBuf
	step := &e.stepBuf
	*step = comm.Step{Sends: sends, Barrier: barrier}
	base := slices.Min(e.clocks)
	offsets := e.offsetsBuf
	any := false
	for p := 0; p < e.n; p++ {
		offsets[p] = e.clocks[p] - base
		if offsets[p] > 0 {
			any = true
		}
		n := 0
		for _, m := range e.ctxs[p].outbox {
			n += m.parts(w)
		}
		if cap(sends[p]) < n {
			sends[p] = make([]comm.Msg, n)
		}
		list := sends[p][:n]
		k := 0
		for _, m := range e.ctxs[p].outbox {
			// Every part but the last is one full word; a block is one
			// part of its whole length.
			parts := m.parts(w)
			for i := range parts - 1 {
				list[k+i] = comm.Msg{Src: p, Dst: m.dst, Bytes: w}
			}
			list[k+parts-1] = comm.Msg{Src: p, Dst: m.dst, Bytes: len(m.payload) - (parts-1)*w}
			k += parts
		}
		sends[p] = list
	}
	if any {
		step.Offsets = offsets
	}
	// Fingerprint the step at Sync and derive the router's RNG stream from
	// the pattern digest rather than the superstep index: a jittered router
	// then draws identical noise for identical phases, which is exactly what
	// makes the memo replay exact — the stored outcome IS the outcome every
	// recurrence of the phase would have simulated.
	d := phase.DigestStep(step)
	step.Memo = d
	res := e.m.Router.Route(step, e.rng.Split(d.Hi^d.Lo))
	if res.Replayed {
		e.res.PatternCacheHits++
	}
	for p := 0; p < e.n; p++ {
		e.clocks[p] = base + res.Finish[p]
	}
	e.res.CommSteps++
	e.res.Stats.Add(res.Stats)
}

// routeSIMD prices the step on a lockstep machine, where every step is a
// barrier and clocks are already aligned. Block messages form one
// synchronous communication step; streams are priced as ceil(bytes/word)
// one-word steps each costing a full router step (MP-BSP's (g+L) per word).
func (e *engine) routeSIMD() {
	hasStream, hasBlock := false, false
	for p := 0; p < e.n; p++ {
		for _, m := range e.ctxs[p].outbox {
			if m.stream {
				hasStream = true
			} else {
				hasBlock = true
			}
		}
	}
	if hasStream && hasBlock {
		e.err = fmt.Errorf("bsplib: step %d mixes word streams and block messages on a SIMD machine", e.stepIdx)
		return
	}

	sends := e.sendsBuf
	for p := range sends {
		sends[p] = sends[p][:0]
	}
	step := &e.stepBuf
	*step = comm.Step{Sends: sends, Barrier: true}

	elapsed := sim.Time(0)
	if hasStream {
		elapsed = e.priceStreams()
	} else {
		// Blocks, or none for a pure barrier.
		for p := 0; p < e.n; p++ {
			for _, m := range e.ctxs[p].outbox {
				sends[p] = append(sends[p], comm.Msg{Src: p, Dst: m.dst, Bytes: len(m.payload)})
			}
		}
		elapsed = e.priceStep(step, 1)
		e.res.CommSteps++
	}
	for p := 0; p < e.n; p++ {
		e.clocks[p] += elapsed
	}
}

// priceStreams prices a SIMD step consisting purely of word streams. Each
// PE transmits its streams back to back, one word per synchronous word
// step (the MasPar's one-outstanding-message restriction); at any word
// index every PE therefore sends at most one word. Consecutive word steps
// share a pattern until some PE crosses a stream boundary, so the step
// sequence is priced per constant-pattern interval: the pattern is built
// and routed once and multiplied by the interval length (with pattern
// memoization on top). For the uniform streams the paper's algorithms
// generate this reduces pricing to a handful of router calls per superstep.
//
// The run lists, boundary list, cursors and the per-interval pattern all
// live in engine scratch: intervals are priced one after another, and every
// router resets its view of the step at the top of Route, so one reused
// backing is safe - and the pattern build stops costing one slice
// allocation per active PE per interval (the dominant allocation of the
// MasPar experiments before the zero-copy pipeline).
func (e *engine) priceStreams() sim.Time {
	w := e.m.WordBytes
	runs := e.runsBuf
	for p := range runs {
		runs[p] = runs[p][:0]
	}
	boundaries := e.boundaries[:0]
	maxWords := 0
	for p := 0; p < e.n; p++ {
		pos := 0
		for _, m := range e.ctxs[p].outbox {
			words := (len(m.payload) + w - 1) / w
			runs[p] = append(runs[p], streamRun{dst: m.dst, start: pos, end: pos + words})
			boundaries = append(boundaries, pos, pos+words)
			pos += words
		}
		if pos > maxWords {
			maxWords = pos
		}
	}
	// Sort, then dedup in place, dropping boundaries at or past the stream
	// end (the list is sorted, so the first such entry ends the scan). The
	// list carries two entries per message (mostly duplicates), so this
	// needs a real sort, not the old tiny-set insertion sort.
	slices.Sort(boundaries)
	uniq := boundaries[:0]
	for i, b := range boundaries {
		if b >= maxWords {
			break
		}
		if i > 0 && b == boundaries[i-1] {
			continue
		}
		uniq = append(uniq, b)
	}
	boundaries = uniq
	e.boundaries = uniq

	elapsed := sim.Time(0)
	cursor := e.cursor // index of the next candidate run per PE
	clear(cursor)
	sends := e.sendsBuf
	step := &e.stepBuf
	for bi, b := range boundaries {
		next := maxWords
		if bi+1 < len(boundaries) {
			next = boundaries[bi+1]
		}
		span := next - b
		for p := range sends {
			sends[p] = sends[p][:0]
		}
		*step = comm.Step{Sends: sends, Barrier: true}
		for p := 0; p < e.n; p++ {
			for cursor[p] < len(runs[p]) && runs[p][cursor[p]].end <= b {
				cursor[p]++
			}
			if cursor[p] < len(runs[p]) {
				r := runs[p][cursor[p]]
				if r.start <= b && b < r.end {
					sends[p] = append(sends[p], comm.Msg{Src: p, Dst: r.dst, Bytes: w})
				}
			}
		}
		elapsed += e.priceStep(step, span)
		e.res.CommSteps += span
	}
	return elapsed
}

// streamRun is one contiguous word-stream interval of a PE, in word-index
// coordinates (priceStreams scratch).
type streamRun struct {
	dst        int
	start, end int
}

// priceStep prices a synchronous SIMD step through the phase memo cache
// and accounts it `repeat` times. The stream index is the superstep index:
// the SIMD routers are RNG-free, so identical patterns price identically
// regardless of the stream, and the memo key does not include it.
func (e *engine) priceStep(step *comm.Step, repeat int) sim.Time {
	step.Memo = phase.DigestStep(step)
	res := e.m.Router.Route(step, e.rng.Split(uint64(e.stepIdx)))
	if res.Replayed {
		e.res.PatternCacheHits += repeat
	}
	for i := 0; i < repeat; i++ {
		e.res.Stats.Add(res.Stats)
	}
	return res.Elapsed * sim.Time(repeat)
}

// deliver moves payloads to the destination inboxes in deterministic
// order (by source, then send order), replacing the previous step's
// deliveries, and empties the outboxes.
//
// Every payload is copied into the engine's delivery arena, so receivers
// never alias sender memory: a sender regains ownership of its buffer the
// moment its synchronization returns, and mutating it cannot corrupt what
// was delivered. Each inbox entry is a capacity-capped sub-slice of the
// arena, so one step costs at most one allocation, not one per message.
func (e *engine) deliver() {
	for p := range e.ctxs {
		e.ctxs[p].inbox = e.ctxs[p].inbox[:0]
	}
	total := 0
	for src := 0; src < e.n; src++ {
		for _, m := range e.ctxs[src].outbox {
			total += len(m.payload)
		}
	}
	e.cur ^= 1
	arena := e.arenas[e.cur]
	if cap(arena) < total {
		arena = make([]byte, total)
	}
	arena = arena[:total]
	e.arenas[e.cur] = arena
	off := 0
	for src := range e.ctxs {
		c := &e.ctxs[src]
		for _, m := range c.outbox {
			buf := arena[off : off+len(m.payload) : off+len(m.payload)]
			off += len(m.payload)
			copy(buf, m.payload)
			d := &e.ctxs[m.dst]
			d.inbox = append(d.inbox, Message{Src: src, Tag: m.tag, Payload: buf})
		}
		// The sender's outbox backing is its own again: drop the payload
		// references and keep the backing for its next step.
		clear(c.outbox)
		c.outbox = c.outbox[:0]
	}
	// The previous step's views die as their receivers leave this Sync,
	// and any forwarded among them were copied above.
	poison(e.arenas[e.cur^1])
}

// poisonByte is what a race build writes over released payload bytes.
const poisonByte = 0xA5

// poison overwrites a released lease or delivery arena in race builds. A
// program that reads a buffer past its release point then decodes poison
// and fails its own verification; a goroutine still holding one races with
// this write. Other builds compile nothing here.
func poison(b []byte) {
	if !raceEnabled || len(b) == 0 {
		return
	}
	b[0] = poisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
