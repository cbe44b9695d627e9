package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"quantpar/internal/algorithms/apsp"
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/algorithms/samplesort"
	"quantpar/internal/bsplib"
	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends" // registers maspar, gcel and cm5
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// op is one algorithm run of the programs mix, at a configuration one of
// the quick-scale experiments uses.
type op struct {
	algo, machine, label string
	// run calls the algorithm's public Run with Verify set and checks the
	// verdict with the tolerance the algorithm package's own tests use.
	run func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error)
}

// mix is the fixed list of runs one programs pass makes, in order.
var mix = []op{
	matmulOp("maspar", 8, matmul.BSPStaggered, 64),  // fig03
	matmulOp("maspar", 8, matmul.BSPStaggered, 128), // fig03
	matmulOp("maspar", 8, matmul.BSPStaggered, 256), // fig03
	matmulOp("maspar", 8, matmul.BPRAM, 64),         // fig08
	matmulOp("maspar", 8, matmul.BPRAM, 128),        // fig08
	matmulOp("maspar", 8, matmul.BPRAM, 256),        // fig08
	matmulOp("cm5", 4, matmul.BSPUnstaggered, 64),   // fig04
	matmulOp("cm5", 4, matmul.BSPUnstaggered, 128),  // fig04
	matmulOp("cm5", 4, matmul.BSPStaggered, 64),     // fig04
	matmulOp("cm5", 4, matmul.BSPStaggered, 128),    // fig04
	matmulOp("cm5", 4, matmul.BPRAM, 32),            // fig09
	matmulOp("cm5", 4, matmul.BPRAM, 256),           // fig09
	bitonicOp("maspar", bitonic.Word, 16),           // fig05
	bitonicOp("maspar", bitonic.Word, 64),           // fig05
	bitonicOp("maspar", bitonic.Block, 64),          // fig10
	bitonicOp("maspar", bitonic.Block, 256),         // fig10
	bitonicOp("gcel", bitonic.Block, 512),           // fig11
	bitonicOp("gcel", bitonic.Block, 2048),          // fig11
	samplesortOp("gcel", samplesort.Padded, 1024),   // fig18
	samplesortOp("gcel", samplesort.Staggered, 1024),
	apspOp("maspar", 128), // fig12
	apspOp("gcel", 64),    // fig13
	apspOp("gcel", 128),   // fig13
	apspOp("cm5", 64),     // fig15
	apspOp("cm5", 128),    // fig15
}

// machineNames are the machines the mix runs on, built by the benchmark.
var machineNames = []string{"maspar", "gcel", "cm5"}

// tolerance is the largest MaxErr a verified numeric run may report: wire
// words of 4 bytes round to float32 (tol4), 8-byte words are exact up to
// summation order.
func tolerance(m *machine.Machine, tol4 float64) float64 {
	if m.WordBytes == 4 {
		return tol4
	}
	return 1e-9
}

func matmulOp(mach string, q int, v matmul.Variant, n int) op {
	return op{"matmul", mach, fmt.Sprintf("%s N=%d", v, n), func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := matmul.Run(m, matmul.Config{N: n, Q: q, Variant: v, Seed: seed, Verify: true})
		if err != nil {
			return nil, err
		}
		if tol := tolerance(m, 1e-3); r.MaxErr > tol {
			return nil, fmt.Errorf("MaxErr %g exceeds %g", r.MaxErr, tol)
		}
		return r.Run, nil
	}}
}

func bitonicOp(mach string, v bitonic.Variant, keys int) op {
	return op{"bitonic", mach, fmt.Sprintf("%s M=%d", v, keys), func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := bitonic.Run(m, bitonic.Config{KeysPerProc: keys, Variant: v, Seed: seed, Verify: true})
		if err != nil {
			return nil, err
		}
		if !r.Sorted {
			return nil, fmt.Errorf("output not sorted")
		}
		return r.Run, nil
	}}
}

func samplesortOp(mach string, v samplesort.Variant, keys int) op {
	return op{"samplesort", mach, fmt.Sprintf("%s M=%d", v, keys), func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := samplesort.Run(m, samplesort.Config{KeysPerProc: keys, Oversample: 32, Variant: v, Seed: seed, Verify: true})
		if err != nil {
			return nil, err
		}
		if !r.Sorted {
			return nil, fmt.Errorf("output not sorted")
		}
		return r.Run, nil
	}}
}

func apspOp(mach string, n int) op {
	return op{"apsp", mach, fmt.Sprintf("N=%d", n), func(m *machine.Machine, seed uint64) (*bsplib.RunResult, error) {
		r, err := apsp.Run(m, apsp.Config{N: n, Seed: seed, Verify: true})
		if err != nil {
			return nil, err
		}
		if tol := tolerance(m, 1e-2); r.MaxErr > tol {
			return nil, fmt.Errorf("MaxErr %g exceeds %g", r.MaxErr, tol)
		}
		return r.Run, nil
	}}
}

// family names an op family: one algorithm on one machine.
type family struct{ algo, machine string }

// families returns the op families of the mix in first-use order.
func families() []family {
	var out []family
	seen := map[family]bool{}
	for _, o := range mix {
		f := family{o.algo, o.machine}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func familyMetric(f family) string { return "algorithms." + f.algo + "." + f.machine + ".ms" }

// faultSpec is the schedule programs-faulted arms every machine with:
// message drops and corruptions, one link that dies and heals, and one
// stalled processor. It has no crashes, which would turn traffic into
// delivery errors by design.
func faultSpec(seed uint64) faults.Spec {
	return faults.Spec{
		Seed:        seed,
		DropRate:    0.10,
		CorruptRate: 0.02,
		LinkKills:   []faults.LinkKill{{U: 0, V: 1, KillAt: 0, HealAt: 50000}},
		Stalls:      []faults.Stall{{Proc: 3, At: 1000, Duration: 2500}},
		Protocol:    faults.Protocol{MaxRetries: 16, Backoff: 2},
	}
}

// simOutcome is the simulated part of a run's result, which must repeat
// exactly whenever the same op runs again: on a cold or a warm memo, with
// or without tracing. Memo hits are left out; they are what differs.
type simOutcome struct {
	time, compute, comm   sim.Time
	commSteps, supersteps int
	stats                 comm.Stats
}

func outcomeOf(r *bsplib.RunResult) simOutcome {
	return simOutcome{r.Time, r.ComputeTime, r.CommTime, r.CommSteps, r.Supersteps, r.Stats}
}

// programs runs the mix on benchmark-owned machines: with a warm phase
// memo (filled by set-up) or on fault-injected machines.
type programs struct {
	seed    uint64
	faulted bool
	ops     []op
	// plain and traced are the machine sets of plain and traced passes;
	// traced machines route through probes.
	plain, traced map[string]*machine.Machine
	probes        []*probe
	// ref holds the simulated outcome of each op's first run; every later
	// run of the op must reproduce it exactly.
	ref map[int]simOutcome
}

// newPrograms returns the workload running ops, which is mix except in
// tests.
func newPrograms(seed uint64, faulted bool, ops []op) *programs {
	return &programs{seed: seed, faulted: faulted, ops: ops, ref: map[int]simOutcome{}}
}

// setup empties the phase memo and builds both machine sets from scratch,
// arming them with fault plans on programs-faulted. On programs-warm it
// then fills the memo with one pass of the mix.
func (w *programs) setup() (int, int, error) {
	phase.ResetStore()
	var err error
	if w.plain, _, err = w.buildMachines(false); err != nil {
		return 0, 0, err
	}
	if w.traced, w.probes, err = w.buildMachines(true); err != nil {
		return 0, 0, err
	}
	if w.faulted {
		return 0, 0, nil
	}
	pr := w.runMix(w.plain, false)
	return pr.ops, pr.failed, nil
}

// buildMachines builds one machine of each kind. A traced machine's
// router is rebuilt as probe -> phase memo -> probe -> raw router, so the
// outer probe times every Route call bsplib makes and the inner one only
// those the memo could not replay.
func (w *programs) buildMachines(traced bool) (map[string]*machine.Machine, []*probe, error) {
	ms := map[string]*machine.Machine{}
	var probes []*probe
	for _, name := range machineNames {
		m, err := machine.Build(name)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			p, err := newProbe(m)
			if err != nil {
				return nil, nil, err
			}
			probes = append(probes, p)
		}
		if w.faulted {
			plan, err := faults.NewPlan(faultSpec(w.seed))
			if err != nil {
				return nil, nil, err
			}
			if err := machine.InjectFaults(m, plan); err != nil {
				return nil, nil, err
			}
		}
		ms[name] = m
	}
	return ms, probes, nil
}

func (w *programs) pass(traced bool) (passResult, error) {
	if !traced {
		return w.runMix(w.plain, false), nil
	}
	pr := w.runMix(w.traced, true)
	return pr, w.superstepCosts(pr.layers)
}

// runMix runs every op once on ms and checks its outputs.
func (w *programs) runMix(ms map[string]*machine.Machine, traced bool) passResult {
	runtime.GC()
	for _, p := range w.probes {
		p.reset()
	}
	before := readCounters(traced)
	pr := passResult{layers: newLayers()}
	var stats comm.Stats
	var opWall time.Duration
	rng := sim.NewRNG(w.seed)
	t0 := time.Now()
	for i, o := range w.ops {
		pr.ops++
		t := time.Now()
		r, err := o.run(ms[o.machine], rng.Split(uint64(i)).Uint64())
		d := time.Since(t)
		opWall += d
		pr.layers[familyMetric(family{o.algo, o.machine})] += float64(d) / float64(time.Millisecond)
		if err == nil {
			err = w.check(i, r)
		}
		if err != nil {
			pr.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s on %s, %s: %v\n", o.algo, o.machine, o.label, err)
			continue
		}
		stats.Add(r.Stats)
		pr.layers["bsplib.supersteps"] += float64(r.Supersteps)
		pr.layers["bsplib.comm_steps"] += float64(r.CommSteps)
	}
	pr.wall = time.Since(t0)
	before.deltas(pr.layers, readCounters(traced), pr.wall)
	addFaultStats(pr.layers, stats)
	if !traced {
		return pr
	}

	var outer, inner, replay time.Duration
	var replays int64
	for _, p := range w.probes {
		outer += p.outer.busy
		inner += p.inner.busy
		replay += p.outer.replayBusy
		replays += p.outer.replays
	}
	pr.layers["bsplib.self_s"] = (opWall - outer).Seconds()
	pr.layers["phase.self_s"] = (outer - inner).Seconds()
	if replays > 0 {
		pr.layers["phase.replay_us"] = float64(replay) / float64(time.Microsecond) / float64(replays)
	}
	pr.layers["netsim.busy_s"] = inner.Seconds()
	if inner > 0 {
		pr.layers["netsim.events_per_s"] = pr.layers["netsim.events"] / inner.Seconds()
	}
	return pr
}

// check compares an op's simulated outcome with its first run's.
func (w *programs) check(i int, r *bsplib.RunResult) error {
	got := outcomeOf(r)
	want, seen := w.ref[i]
	if !seen {
		w.ref[i] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("simulated outcome %+v differs from the first run's %+v", got, want)
	}
	return nil
}

// superstepSteps is the length of the Sync-only program that prices an
// empty superstep.
const superstepSteps = 200

// superstepCosts measures the host cost of an empty superstep at P=64
// (cm5) and P=1024 (maspar): a Sync-only program on a fault-free machine.
func (w *programs) superstepCosts(layers map[string]float64) error {
	prog := func(ctx *bsplib.Context) {
		for i := 0; i < superstepSteps; i++ {
			ctx.Sync()
		}
	}
	for _, c := range []struct{ machine, metric string }{
		{"cm5", "bsplib.superstep_us.p64"},
		{"maspar", "bsplib.superstep_us.p1024"},
	} {
		m, err := machine.Build(c.machine)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := bsplib.Run(m, prog, bsplib.Options{Seed: w.seed}); err != nil {
			return fmt.Errorf("empty supersteps on %s: %w", c.machine, err)
		}
		layers[c.metric] = float64(time.Since(t0)) / float64(time.Microsecond) / superstepSteps
	}
	return nil
}
