// Package bsplib is the parallel programming library of this reproduction:
// a superstep (BSP-style) execution engine that runs P-processor programs
// on a simulated machine. Programs are ordinary Go functions executed in
// one goroutine per simulated processor; they compute real results on real
// data while the engine accounts simulated time - local computation through
// the machine's compute model, communication through its router simulator.
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
	"math"
	"runtime"
	"slices"
	"sync"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
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

// slot is what a processor files at each synchronization: its outbox and
// compute charge, or the end of its program with any panic. Processor p
// writes slots[p] before it marks arrive; the engine reads it after Wait.
type slot struct {
	outbox  []outMsg
	compute sim.Time
	barrier bool
	exited  bool
	err     error
}

// engine is the state of one run, written only by the goroutine that
// called Run. A processor writes just its own slot, and reads the engine
// (its inbox and clock, release, err) only while the engine waits for the
// step's arrivals.
type engine struct {
	m   *machine.Machine
	n   int
	opt Options

	slots   []slot
	arrive  sync.WaitGroup // processors yet to file the current step
	release chan struct{}  // closed once the current step is delivered
	running []int          // processors whose programs have not returned
	err     error

	clocks    []sim.Time
	computeAt []sim.Time
	outboxes  [][]outMsg
	inboxes   [][]Message

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

// newInboxes preallocates per-processor inboxes with room for a typical
// superstep's traffic, avoiding the append-doubling allocations of every
// run's first delivery.
func newInboxes(n int) [][]Message {
	lists := make([][]Message, n)
	for i := range lists {
		lists[i] = make([]Message, 0, 16)
	}
	return lists
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
//   - a "bsplib: " error for a nil machine, a nil program or an unknown
//     discipline, returned before any processor starts.
func Run(m *machine.Machine, prog Program, opt Options) (*RunResult, error) {
	switch {
	case m == nil:
		return nil, errors.New("bsplib: nil machine")
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
		slots:      make([]slot, n),
		release:    make(chan struct{}),
		running:    make([]int, n),
		clocks:     make([]sim.Time, n),
		computeAt:  make([]sim.Time, n),
		outboxes:   make([][]outMsg, n),
		inboxes:    newInboxes(n),
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
	if ctrl := faults.ControllerOf(m.Router); ctrl != nil {
		ctrl.ResetFaultClock()
	}

	e.arrive.Add(n)
	for p := 0; p < n; p++ {
		e.running[p] = p
		go (&Context{
			e: e, id: p, rng: e.rng.Split(uint64(0xC0FFEE + p)),
			// Seed the send-side scratch so typical first supersteps
			// skip the append-doubling allocations.
			outbox: make([]outMsg, 0, 16),
		}).run(prog)
	}
	// One wake-up per step: the last processor to file wakes the engine,
	// which prices the step and releases every waiter at once.
	for len(e.running) > 0 && e.err == nil {
		e.arrive.Wait()
		e.step()
		release := e.release
		e.release = make(chan struct{})
		e.arrive.Add(len(e.running))
		close(release)
	}
	if e.err != nil {
		e.arrive.Wait() // the released processors unwind before Run returns
		return nil, e.err
	}
	// Residual compute after the last sync extends the makespan.
	maxResidual := sim.Time(0)
	maxClock := sim.Time(0)
	for p := 0; p < n; p++ {
		e.clocks[p] += e.computeAt[p]
		if e.computeAt[p] > maxResidual {
			maxResidual = e.computeAt[p]
		}
		if e.clocks[p] > maxClock {
			maxClock = e.clocks[p]
		}
	}
	e.res.ComputeTime += maxResidual
	e.res.Time = maxClock
	e.res.CommTime = e.res.Time - e.res.ComputeTime
	return &e.res, nil
}

// sync files processor p's step and parks p until the engine has priced
// and delivered it. If the run failed instead, p unwinds with
// runtime.Goexit, which no program can recover from.
func (e *engine) sync(p int, s slot) {
	e.slots[p] = s
	release := e.release // read before Done: the engine replaces it after Wait
	e.arrive.Done()
	<-release
	if e.err != nil {
		runtime.Goexit()
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

// step runs once every running processor has filed. It retires the
// processors whose programs ended, taking the first program panic in
// processor order as the run's error, then checks, prices and delivers
// the step the rest synchronized on.
func (e *engine) step() {
	running := e.running[:0]
	barrier := false
	for _, p := range e.running {
		s := &e.slots[p]
		// An ended program files the compute charged after its last sync,
		// which still occupies its processor.
		e.computeAt[p] += s.compute
		if s.exited {
			if e.err == nil {
				e.err = s.err
			}
			continue
		}
		if len(running) == 0 {
			barrier = s.barrier
		} else if s.barrier != barrier && e.err == nil {
			e.err = fmt.Errorf("bsplib: processors disagree on step type (barrier vs flush) at step %d", e.stepIdx)
		}
		e.outboxes[p] = s.outbox
		running = append(running, p)
	}
	e.running = running
	if e.err == nil && len(running) > 0 {
		e.route(barrier)
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
	wallBefore := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.clocks[p] > wallBefore {
			wallBefore = e.clocks[p]
		}
	}
	commStepsBefore := e.res.CommSteps

	// Local computation: SIMD machines run in lockstep, so every step
	// costs the maximum charge; MIMD machines advance each clock by its
	// own charge (skews persist until a barrier).
	maxC := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.computeAt[p] > maxC {
			maxC = e.computeAt[p]
		}
	}
	e.res.ComputeTime += maxC
	if e.m.SIMD {
		align := sim.Time(0)
		for p := 0; p < e.n; p++ {
			if e.clocks[p] > align {
				align = e.clocks[p]
			}
		}
		align += maxC
		for p := 0; p < e.n; p++ {
			e.clocks[p] = align
			e.computeAt[p] = 0
		}
	} else {
		for p := 0; p < e.n; p++ {
			e.clocks[p] += e.computeAt[p]
			e.computeAt[p] = 0
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
	wallAfter := sim.Time(0)
	for p := 0; p < e.n; p++ {
		if e.clocks[p] > wallAfter {
			wallAfter = e.clocks[p]
		}
	}
	rec.Wall = wallAfter - wallBefore
	in := e.inDeg
	clear(in)
	for src := 0; src < e.n; src++ {
		for _, m := range e.outboxes[src] {
			rec.Msgs++
			rec.Bytes += len(m.payload)
			in[m.dst]++
		}
	}
	for p := 0; p < e.n; p++ {
		out := len(e.outboxes[p])
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
		if len(e.outboxes[src]) > 1 {
			return fmt.Errorf("bsplib: MP-BPRAM violation at step %d: processor %d sends %d messages",
				e.stepIdx, src, len(e.outboxes[src]))
		}
		for _, m := range e.outboxes[src] {
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
	base := math.Inf(1)
	for p := 0; p < e.n; p++ {
		if e.clocks[p] < base {
			base = e.clocks[p]
		}
	}
	offsets := e.offsetsBuf
	any := false
	for p := 0; p < e.n; p++ {
		offsets[p] = e.clocks[p] - base
		if offsets[p] > 0 {
			any = true
		}
		n := 0
		for _, m := range e.outboxes[p] {
			n += m.parts(w)
		}
		if cap(sends[p]) < n {
			sends[p] = make([]comm.Msg, n)
		}
		list := sends[p][:n]
		k := 0
		for _, m := range e.outboxes[p] {
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
		for _, m := range e.outboxes[p] {
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
	switch {
	case !hasStream && !hasBlock:
		// Pure barrier.
		elapsed = e.priceStep(step, 1)
		e.res.CommSteps++
	case hasBlock:
		for p := 0; p < e.n; p++ {
			for _, m := range e.outboxes[p] {
				sends[p] = append(sends[p], comm.Msg{Src: p, Dst: m.dst, Bytes: len(m.payload)})
			}
		}
		elapsed = e.priceStep(step, 1)
		e.res.CommSteps++
	default:
		elapsed = e.priceStreams()
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
		for _, m := range e.outboxes[p] {
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
// deliveries.
//
// Every payload is copied into the engine's delivery arena, so receivers
// never alias sender memory: a sender regains ownership of its buffer the
// moment its synchronization returns, and mutating it cannot corrupt what
// was delivered. Each inbox entry is a capacity-capped sub-slice of the
// arena, so one step costs at most one allocation, not one per message.
func (e *engine) deliver() {
	for p := 0; p < e.n; p++ {
		e.inboxes[p] = e.inboxes[p][:0]
	}
	total := 0
	for src := 0; src < e.n; src++ {
		for _, m := range e.outboxes[src] {
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
	for src := 0; src < e.n; src++ {
		for _, m := range e.outboxes[src] {
			buf := arena[off : off+len(m.payload) : off+len(m.payload)]
			off += len(m.payload)
			copy(buf, m.payload)
			e.inboxes[m.dst] = append(e.inboxes[m.dst], Message{Src: src, Tag: m.tag, Payload: buf})
		}
		e.outboxes[src] = nil
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
