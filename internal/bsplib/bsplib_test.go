package bsplib

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
	"quantpar/internal/wire"
)

// fakeRouter prices a step as base + msgCost per message, with per-
// processor completion respecting offsets; it satisfies the comm.Router
// contract while staying trivially predictable for assertions.
type fakeRouter struct {
	procs   int
	base    float64
	msgCost float64
	calls   int32
}

func (f *fakeRouter) Name() string { return "fake" }
func (f *fakeRouter) Procs() int   { return f.procs }

func (f *fakeRouter) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	atomic.AddInt32(&f.calls, 1)
	n := float64(step.NumMsgs())
	finish := make([]sim.Time, f.procs)
	elapsed := sim.Time(0)
	for p := 0; p < f.procs; p++ {
		off := sim.Time(0)
		if step.Offsets != nil {
			off = step.Offsets[p]
		}
		finish[p] = off
		if len(step.Sends[p]) > 0 || step.Barrier || n > 0 {
			finish[p] = off + f.base + f.msgCost*sim.Time(n)
		}
		if finish[p] > elapsed {
			elapsed = finish[p]
		}
	}
	if step.Barrier {
		for p := range finish {
			finish[p] = elapsed
		}
	}
	return comm.Result{Elapsed: elapsed, Finish: finish, Stats: comm.Stats{Msgs: step.NumMsgs()}}
}

// fakeFP hands every fake machine a unique phase-cache fingerprint, so no
// test can hit (or be polluted by) entries memoized for another machine.
var fakeFP atomic.Uint64

func fakeMachine(procs int, simd bool, r *fakeRouter) *machine.Machine {
	return &machine.Machine{
		Name:      "fake",
		Router:    phase.Wrap(r, fakeFP.Add(1), false),
		Compute:   &machine.BasicCompute{AlphaC: 1, Beta: 1, Gamma: 1, MergeC: 1, OpC: 2},
		WordBytes: 4,
		SIMD:      simd,
	}
}

func TestDeliveryAndTags(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 10, msgCost: 1}
	m := fakeMachine(4, false, r)
	var got [4]string
	_, err := Run(m, func(ctx *Context) {
		id := ctx.ID()
		if id == 0 {
			ctx.Send(1, 7, []byte("hello"))
			ctx.Send(1, 8, []byte("other"))
		}
		if id == 2 {
			ctx.Send(1, 7, []byte("world"))
		}
		ctx.Sync()
		if id == 1 {
			pays := ctx.Recv(7)
			parts := make([]string, len(pays))
			for i, p := range pays {
				parts[i] = string(p)
			}
			got[1] = strings.Join(parts, " ")
			if string(ctx.RecvFrom(0, 8)) != "other" {
				t.Error("RecvFrom(0, 8) missed")
			}
			if ctx.RecvFrom(3, 7) != nil {
				t.Error("RecvFrom(3, 7) invented a message")
			}
			if len(ctx.RecvMsgs()) != 3 {
				t.Errorf("RecvMsgs %d, want 3", len(ctx.RecvMsgs()))
			}
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != "hello world" {
		t.Fatalf("tag-7 payloads = %q, want source order", got[1])
	}
}

func TestInboxReplacedEachStep(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, false, r)
	_, err := Run(m, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.Send(1, 1, []byte("a"))
		}
		ctx.Sync()
		ctx.Sync()
		if ctx.ID() == 1 && ctx.RecvFrom(0, 1) != nil {
			t.Error("stale message survived a step")
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSIMDStreamPricing(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 100, msgCost: 1}
	m := fakeMachine(4, true, r)
	res, err := Run(m, func(ctx *Context) {
		// One stream of 10 words to the partner: priced as 10 word steps
		// of a 4-message pattern (every processor sends one word).
		ctx.SendWords(ctx.ID()^1, 1, make([]byte, 40))
		ctx.Sync()
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 * (100 + 4)
	if res.Time != want {
		t.Fatalf("stream priced %g, want %g", res.Time, want)
	}
	if res.CommSteps != 10 {
		t.Fatalf("comm steps %d, want 10", res.CommSteps)
	}
	// The uniform-stream shortcut needs only one router call.
	if r.calls != 1 {
		t.Fatalf("router called %d times, want 1 (interval pricing)", r.calls)
	}
}

func TestSIMDMultipleStreamsSerialize(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 100, msgCost: 1}
	m := fakeMachine(4, true, r)
	res, err := Run(m, func(ctx *Context) {
		// Two streams of 5 words each: a PE sends one word per step, so
		// the step count is the concatenated length.
		ctx.SendWords((ctx.ID()+1)%4, 1, make([]byte, 20))
		ctx.SendWords((ctx.ID()+2)%4, 2, make([]byte, 20))
		ctx.Sync()
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps != 10 {
		t.Fatalf("comm steps %d, want 10 (streams serialized per PE)", res.CommSteps)
	}
	if res.Time != 10*(100+4) {
		t.Fatalf("priced %g", res.Time)
	}
}

func TestSIMDRaggedStreamsPricePerInterval(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 10, msgCost: 1}
	m := fakeMachine(2, true, r)
	res, err := Run(m, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.SendWords(1, 1, make([]byte, 12)) // 3 words
		} else {
			ctx.SendWords(0, 1, make([]byte, 4)) // 1 word
		}
		ctx.Sync()
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Interval [0,1): both PEs send (2 msgs) = 12; interval [1,3): only
	// PE 0 sends (1 msg) = 11 each.
	want := (10.0 + 2) + 2*(10.0+1)
	if res.Time != want {
		t.Fatalf("ragged stream priced %g, want %g", res.Time, want)
	}
}

func TestComputeChargesSIMDMax(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 5, msgCost: 0}
	m := fakeMachine(4, true, r)
	res, err := Run(m, func(ctx *Context) {
		ctx.Charge(float64(10 * (ctx.ID() + 1)))
		ctx.Sync()
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeTime != 40 {
		t.Fatalf("SIMD compute %g, want max 40", res.ComputeTime)
	}
}

func TestMIMDSkewPersistsAcrossFlush(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 0, msgCost: 0}
	m := fakeMachine(2, false, r)
	res, err := Run(m, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.Charge(50)
		}
		ctx.Flush()
		if ctx.ID() == 1 {
			ctx.Charge(60)
		}
		ctx.Flush()
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without barriers the charges overlap: makespan is 60, not 110.
	if res.Time != 60 {
		t.Fatalf("makespan %g, want 60 (skews persist)", res.Time)
	}
}

func TestResidualComputeExtendsMakespan(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 5, msgCost: 0}
	m := fakeMachine(2, false, r)
	res, err := Run(m, func(ctx *Context) {
		ctx.Sync()
		ctx.Charge(25) // after the last sync
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 5+25 {
		t.Fatalf("makespan %g, want 30", res.Time)
	}
}

func TestMPBPRAMDisciplineViolation(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 1, msgCost: 1}
	m := fakeMachine(4, false, r)
	_, err := Run(m, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.Send(1, 1, []byte("x"))
			ctx.Send(2, 1, []byte("y"))
		}
		ctx.Sync()
	}, Options{Seed: 1, Discipline: DisciplineMPBPRAM})
	if err == nil || !strings.Contains(err.Error(), "MP-BPRAM violation") {
		t.Fatalf("two sends passed the discipline check: %v", err)
	}

	_, err = Run(m, func(ctx *Context) {
		if ctx.ID() == 0 || ctx.ID() == 2 {
			ctx.Send(1, 1, []byte("x"))
		}
		ctx.Sync()
	}, Options{Seed: 1, Discipline: DisciplineMPBPRAM})
	if err == nil || !strings.Contains(err.Error(), "receives more than one") {
		t.Fatalf("double receive passed the discipline check: %v", err)
	}
}

func TestSIMDMixedStreamAndBlockFails(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, true, r)
	_, err := Run(m, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.Send(1, 1, []byte("blk"))
			ctx.SendWords(1, 2, []byte("strm"))
		}
		ctx.Sync()
	}, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "mixes word streams and block") {
		t.Fatalf("mixed step accepted: %v", err)
	}
}

func TestPatternCache(t *testing.T) {
	prog := func(ctx *Context) {
		for i := 0; i < 5; i++ {
			ctx.Send(ctx.ID()^1, 1, []byte("same"))
			ctx.Sync()
		}
	}
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	res, err := Run(fakeMachine(2, true, r), prog, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PatternCacheHits != 4 {
		t.Fatalf("cache hits %d, want 4", res.PatternCacheHits)
	}
	if r.calls != 1 {
		t.Fatalf("router called %d times, want 1", r.calls)
	}
	r2 := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	phase.SetEnabled(false)
	res2, err := Run(fakeMachine(2, true, r2), prog, Options{Seed: 1})
	phase.SetEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PatternCacheHits != 0 || r2.calls != 5 {
		t.Fatalf("cache not disabled: hits %d calls %d", res2.PatternCacheHits, r2.calls)
	}
	if res.Time != res2.Time {
		t.Fatalf("caching changed the price: %g vs %g", res.Time, res2.Time)
	}
}

func TestProgramPanicBecomesError(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	_, err := Run(fakeMachine(2, false, r), func(ctx *Context) {
		if ctx.ID() == 1 {
			panic("boom")
		}
		ctx.Sync()
	}, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

// TestLowestPanickingProcessorWins panics two processors in the same
// superstep: the run's error must name the lower-numbered one every time,
// whichever goroutine happens to get there first.
func TestLowestPanickingProcessorWins(t *testing.T) {
	r := &fakeRouter{procs: 64, base: 1, msgCost: 1}
	m := fakeMachine(64, false, r)
	for i := 0; i < 50; i++ {
		_, err := Run(m, func(ctx *Context) {
			ctx.Sync()
			if id := ctx.ID(); id == 7 || id == 40 {
				panic(fmt.Sprintf("PE %d", id))
			}
			ctx.Sync()
		}, Options{Seed: 1})
		if want := "bsplib: processor 7: panic: PE 7"; err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", i, err, want)
		}
	}
}

// TestFailingRunErrorIsDeterministic repeats one seeded failing program: on
// a CM-5 whose PE 2 crashed at time zero, every PE sends to its right
// neighbour, so the first superstep exhausts a delivery budget. Every run
// must fail with the same structured error text.
func TestFailingRunErrorIsDeterministic(t *testing.T) {
	m, err := machine.Build("cm5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.NewPlan(faults.Spec{
		Seed:     7,
		DropRate: 0.05,
		Crashes:  []faults.Crash{{Proc: 2, At: 0}},
		Protocol: faults.Protocol{MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.InjectFaults(m, plan); err != nil {
		t.Fatal(err)
	}
	texts := map[string]int{}
	for i := 0; i < 30; i++ {
		_, err := Run(m, func(ctx *Context) {
			ctx.Send((ctx.ID()+1)%ctx.P(), 1, []byte("ping"))
			ctx.Sync()
		}, Options{Seed: 1})
		if !errors.As(err, new(*faults.DeliveryError)) || !strings.HasPrefix(err.Error(), "bsplib: step 0: ") {
			t.Fatalf("run %d: error %v, want step 0's *faults.DeliveryError", i, err)
		}
		texts[err.Error()]++
	}
	if len(texts) != 1 {
		t.Fatalf("30 runs of one program gave %d error texts: %v", len(texts), texts)
	}
}

// opaqueRouter decorates a router and shows nothing but comm.Router: it
// has no Unwrap, so nothing can walk through it to the interconnect.
type opaqueRouter struct{ comm.Router }

// TestFaultsReachWrappedRouter arms a machine whose Router sits under a
// decorator without Unwrap. The plan reaches the interconnect through
// Machine.Net, and Run rewinds the fault clock there, so two runs of one
// faulty program must give identical results: without the rewind the
// second run would draw its fault verdicts from later steps.
func TestFaultsReachWrappedRouter(t *testing.T) {
	m, err := machine.Build("cm5")
	if err != nil {
		t.Fatal(err)
	}
	m.Router = opaqueRouter{m.Router}
	plan, err := faults.NewPlan(faults.Spec{Seed: 5, DropRate: 0.1, DelayRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.InjectFaults(m, plan); err != nil {
		t.Fatal(err)
	}
	run := func() *RunResult {
		res, err := Run(m, func(ctx *Context) {
			for s := 0; s < 4; s++ {
				ctx.Send((ctx.ID()+1+s)%ctx.P(), 1, []byte("ping"))
				ctx.Sync()
			}
		}, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Retries == 0 || a.Stats.Dropped == 0 {
		t.Fatalf("no fault exercised: %+v", a.Stats)
	}
	if a.Time != b.Time || a.Stats != b.Stats {
		t.Fatalf("twin faulty runs differ: %g us %+v vs %g us %+v", a.Time, a.Stats, b.Time, b.Stats)
	}
}

// atLeastTwoCPUs raises GOMAXPROCS to 2 for the rest of the test if it is
// lower, so that a Run of 2 × minLaneProcs processors or more gets a
// helper.
func atLeastTwoCPUs(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// TestFailedRunLeavesNoGoroutine fails a 1,024-processor run at step 3,
// twice, with a helper resuming the failing processor's lane. Run unwinds
// the programs still running, gives their coroutines back for the next
// run and waits for its helpers to exit, so the second run must leave the
// goroutine count where it was. A coroutine left suspended in a program
// would keep its stack and the machine alive, and the second run would
// start new ones. The count may fall: the goroutine of the test before
// this one can still be exiting when it is first read.
func TestFailedRunLeavesNoGoroutine(t *testing.T) {
	atLeastTwoCPUs(t)
	m := fakeMachine(1024, false, &fakeRouter{procs: 1024, base: 1, msgCost: 1})
	fail := func() {
		t.Helper()
		var held atomic.Int32
		_, err := Run(m, func(ctx *Context) {
			for s := 0; s < 6; s++ {
				if s == 3 && ctx.ID() == 700 {
					held.Store(heldHelpers.Load())
					panic("step 3")
				}
				ctx.Sync()
			}
		}, Options{Seed: 1})
		if want := "bsplib: processor 700: panic: step 3"; err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
		if held.Load() == 0 {
			t.Fatal("the run held no helper")
		}
	}
	fail()
	before := runtime.NumGoroutine()
	fail()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the second failed run, %d before it", after, before)
	}
}

// TestLanesDoNotChangeResults runs one 1,024-processor program at
// GOMAXPROCS 1, 2 and 4, that is in one, two and four lanes, on a MIMD and
// a SIMD machine. Its processors draw from their RNGs, charge compute,
// send messages of varied length to random processors and fold what they
// receive into a hash; a third of them return early, at different steps,
// which moves the lane boundaries. The RunResult and every hash must be
// the same in every lane count, and a Run must hold GOMAXPROCS-1 helpers.
func TestLanesDoNotChangeResults(t *testing.T) {
	const procs = 1024
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	prog := func(out []uint64, held *atomic.Int32) Program {
		return func(ctx *Context) {
			id, rng := ctx.ID(), ctx.RNG()
			if id == 0 {
				held.Store(heldHelpers.Load())
			}
			h := uint64(id)
			for s := 0; s < 6; s++ {
				if id%3 == 0 && s == 1+id%5 {
					break
				}
				ctx.Charge(float64(rng.Intn(100)))
				for range rng.Intn(3) {
					buf := ctx.PayloadBuf(1 + rng.Intn(64))
					for i := range buf {
						buf[i] = byte(rng.Uint32())
					}
					ctx.Send(rng.Intn(procs), s, buf)
				}
				ctx.Sync()
				for _, m := range ctx.RecvMsgs() {
					h = (h^uint64(m.Src)<<8^uint64(m.Tag))*1099511628211 + uint64(len(m.Payload))
					for _, b := range m.Payload {
						h = (h ^ uint64(b)) * 1099511628211
					}
				}
			}
			out[id] = h
		}
	}
	for _, simd := range []bool{false, true} {
		var first RunResult
		var firstOut []uint64
		for _, cpus := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(cpus)
			out := make([]uint64, procs)
			var held atomic.Int32
			// A machine of its own per Run: each starts with a cold phase
			// memo, so the memo hits agree too.
			m := fakeMachine(procs, simd, &fakeRouter{procs: procs, base: 2, msgCost: 1})
			res, err := Run(m, prog(out, &held), Options{Seed: 9})
			if err != nil {
				t.Fatalf("SIMD %v, GOMAXPROCS %d: %v", simd, cpus, err)
			}
			if got := held.Load(); got != int32(cpus-1) {
				t.Errorf("SIMD %v, GOMAXPROCS %d: the run held %d helpers, want %d", simd, cpus, got, cpus-1)
			}
			if firstOut == nil {
				first, firstOut = *res, out
				continue
			}
			if *res != first {
				t.Errorf("SIMD %v, GOMAXPROCS %d: result %+v, at GOMAXPROCS 1 %+v", simd, cpus, *res, first)
			}
			for p := range out {
				if out[p] != firstOut[p] {
					t.Errorf("SIMD %v, GOMAXPROCS %d: processor %d hashed %#x, at GOMAXPROCS 1 %#x", simd, cpus, p, out[p], firstOut[p])
					break
				}
			}
		}
	}
}

// TestConcurrentRunsShareHelpers runs four 1,024-processor programs at
// once at GOMAXPROCS 2. Between them they may hold one helper at a time,
// and none once every Run has returned.
func TestConcurrentRunsShareHelpers(t *testing.T) {
	const procs, runs = 1024, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var most atomic.Int32
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := fakeMachine(procs, false, &fakeRouter{procs: procs, base: 1, msgCost: 1})
			_, errs[r] = Run(m, func(ctx *Context) {
				for s := 0; s < 20; s++ {
					if ctx.ID()%256 == 0 {
						h := heldHelpers.Load()
						for old := most.Load(); h > old && !most.CompareAndSwap(old, h); old = most.Load() {
						}
					}
					ctx.Sync()
				}
			}, Options{Seed: uint64(r)})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", r, err)
		}
	}
	if got := most.Load(); got != 1 {
		t.Errorf("the runs held at most %d helpers at once, want 1", got)
	}
	if got := heldHelpers.Load(); got != 0 {
		t.Errorf("%d helpers held after every run returned", got)
	}
}

// TestRecoveringProgramStillUnwinds runs a program that recovers every
// panic around its Sync calls on a run that fails at step 1. Each Sync
// after the failure unwinds the program again, so it still returns, and
// Run reports the failure, never the unwinding.
func TestRecoveringProgramStillUnwinds(t *testing.T) {
	const procs, steps = 4, 5
	var unwound [procs]int
	_, err := Run(fakeMachine(procs, false, &fakeRouter{procs: procs, base: 1, msgCost: 1}), func(ctx *Context) {
		for s := 0; s < steps; s++ {
			if s == 1 && ctx.ID() == 2 {
				panic("PE 2")
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						unwound[ctx.ID()]++
					}
				}()
				ctx.Sync()
			}()
		}
	}, Options{Seed: 1})
	if want := "bsplib: processor 2: panic: PE 2"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	// Steps 1 to 4 unwind every processor but the failed one.
	if want := [procs]int{steps - 1, steps - 1, 0, steps - 1}; unwound != want {
		t.Fatalf("unwound Syncs per processor %v, want %v", unwound, want)
	}
}

// TestGoexitEndsTheCallingGoroutine calls runtime.Goexit in one
// processor's program, on 64 processors, which run in one lane, and on
// 1,024, where the processor is in the last lane and a helper resumes it.
// As Run's doc says, that ends the goroutine that called Run, and Run
// unwinds every other processor on the way out. The coroutine that Goexit
// ended must not serve the next run.
func TestGoexitEndsTheCallingGoroutine(t *testing.T) {
	atLeastTwoCPUs(t)
	for _, c := range []struct{ procs, exiter int }{{64, 5}, {1024, 1000}} {
		m := fakeMachine(c.procs, false, &fakeRouter{procs: c.procs, base: 1, msgCost: 1})
		var ended, held atomic.Int32
		returned := make(chan bool)
		go func() {
			ok := false
			defer func() { returned <- ok }()
			_, _ = Run(m, func(ctx *Context) {
				defer ended.Add(1)
				ctx.Sync()
				if ctx.ID() == c.exiter {
					held.Store(heldHelpers.Load())
					runtime.Goexit()
				}
				ctx.Sync()
			}, Options{Seed: 1})
			ok = true
		}()
		if <-returned {
			t.Fatalf("%d processors: Run returned although a processor called runtime.Goexit", c.procs)
		}
		if got := ended.Load(); got != int32(c.procs) {
			t.Fatalf("%d processors: %d programs ended", c.procs, got)
		}
		if c.procs >= 2*minLaneProcs && held.Load() == 0 {
			t.Fatalf("%d processors: the run held no helper", c.procs)
		}
		var ran atomic.Int32
		if _, err := Run(m, func(ctx *Context) { ran.Add(1); ctx.Sync() }, Options{Seed: 1}); err != nil || ran.Load() != int32(c.procs) {
			t.Fatalf("%d processors: next run: %d programs ran, error %v", c.procs, ran.Load(), err)
		}
	}
}

func TestEarlyReturningProcessors(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 1, msgCost: 1}
	res, err := Run(fakeMachine(4, false, r), func(ctx *Context) {
		if ctx.ID() >= 2 {
			return // idle processors
		}
		ctx.Send(ctx.ID()^1, 1, []byte("x"))
		ctx.Sync()
		if ctx.RecvFrom(ctx.ID()^1, 1) == nil {
			t.Error("active pair lost its exchange")
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Fatalf("supersteps %d", res.Supersteps)
	}
}

func TestBarrierFlushMismatchFails(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	_, err := Run(fakeMachine(2, false, r), func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.Sync()
		} else {
			ctx.Flush()
		}
	}, Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("mismatched step types accepted: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *RunResult {
		r := &fakeRouter{procs: 8, base: 3, msgCost: 2}
		res, err := Run(fakeMachine(8, false, r), func(ctx *Context) {
			rng := ctx.RNG()
			for i := 0; i < 3; i++ {
				ctx.Send(rng.Intn(8), 1, wire.PutUint32s([]uint32{rng.Uint32()}))
				ctx.Sync()
			}
		}, Options{Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Stats != b.Stats || a.CommSteps != b.CommSteps {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

// TestContextGuards runs programs that misuse the Context on a SIMD and a
// MIMD machine: each must fail with the panic of processor 0, the lowest
// processor that made the mistake. A NaN or +Inf charge is no time, so it
// must not be dropped or priced as an infinite step.
func TestContextGuards(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	cases := []struct {
		name string
		prog Program
	}{
		{"bad destination", func(ctx *Context) { ctx.Send(99, 1, []byte("x")) }},
		{"empty payload", func(ctx *Context) { ctx.Send(0, 1, nil) }},
		{"negative charge", func(ctx *Context) { ctx.Charge(-1) }},
		{"NaN charge", func(ctx *Context) { ctx.Charge(math.NaN()) }},
		{"+Inf charge", func(ctx *Context) { ctx.Charge(math.Inf(1)) }},
		{"negative ops", func(ctx *Context) { ctx.ChargeOps(-1) }},
		{"negative payload size", func(ctx *Context) { ctx.PayloadBuf(-1) }},
	}
	for _, simd := range []bool{false, true} {
		for _, c := range cases {
			_, err := Run(fakeMachine(2, simd, r), c.prog, Options{Seed: 1})
			if err == nil || !strings.HasPrefix(err.Error(), "bsplib: processor 0:") ||
				strings.Contains(err.Error(), "runtime error") {
				t.Errorf("SIMD %v, %s: error %v, want processor 0's guard panic", simd, c.name, err)
			}
		}
	}
}

// TestRunRejectsBadArguments checks that Run refuses a nil machine, a
// machine not built by machine.Assemble that lacks its router or compute
// model or has no word size, a nil program and an unknown discipline with
// its own error, not a runtime one.
func TestRunRejectsBadArguments(t *testing.T) {
	m := fakeMachine(2, false, &fakeRouter{procs: 2, base: 1, msgCost: 1})
	prog := func(ctx *Context) {
		ctx.ChargeOps(1)
		ctx.Sync()
	}
	cases := []struct {
		name string
		m    *machine.Machine
		prog Program
		opt  Options
	}{
		{"nil machine", nil, prog, Options{}},
		{"machine without a router", &machine.Machine{}, prog, Options{}},
		{"machine without a compute model", &machine.Machine{Router: m.Router, WordBytes: 4}, prog, Options{}},
		{"machine with a zero word size", &machine.Machine{Router: m.Router, Compute: m.Compute}, prog, Options{}},
		{"nil program", m, nil, Options{}},
		{"unknown discipline", m, prog, Options{Discipline: 7}},
	}
	for _, c := range cases {
		_, err := Run(c.m, c.prog, c.opt)
		if err == nil || !strings.HasPrefix(err.Error(), "bsplib: ") || strings.Contains(err.Error(), "runtime error") {
			t.Errorf("%s: error %v, want a bsplib argument error", c.name, err)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	r := &fakeRouter{procs: 4, base: 10, msgCost: 1}
	rec := trace.NewRecorder()
	_, err := Run(fakeMachine(4, false, r), func(ctx *Context) {
		ctx.Charge(5)
		ctx.Send(ctx.ID()^1, 1, []byte("abcd"))
		ctx.Sync()
		ctx.Sync()
	}, Options{Seed: 1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 2 {
		t.Fatalf("recorded %d supersteps, want 2", rec.Len())
	}
	s := rec.Steps()[0]
	if s.Msgs != 4 || s.Bytes != 16 || s.H != 1 || s.Active != 4 {
		t.Fatalf("step record %+v", s)
	}
	if s.Compute != 5 {
		t.Fatalf("step compute %g", s.Compute)
	}
	if s.Wall != 5+10+4*1 {
		t.Fatalf("step wall %g, want 19", s.Wall)
	}
	if rec.Steps()[1].Msgs != 0 {
		t.Fatalf("second step record %+v", rec.Steps()[1])
	}
}
