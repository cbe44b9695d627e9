package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"quantpar/internal/comm"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	"quantpar/internal/phase"
	"quantpar/internal/report"
	"quantpar/internal/runstore"
	"quantpar/internal/sim"
)

// goldenDir is the committed golden artifact store, relative to the
// module root.
const goldenDir = "internal/runstore/testdata/golden"

// goldenSeed is the experiment seed the goldens were generated with. The
// workload seed shuffles the experiment order instead: at other experiment
// seeds some series drift past the golden gate's tolerance by design, and
// the order changes neither artifact bytes nor counts.
const goldenSeed = 1996

// paperCold regenerates every quick-scale experiment with an empty phase
// memo, as qpexp and the golden gate do, renders each outcome, encodes it
// as a run artifact and compares the bytes with its golden.
type paperCold struct {
	seed   uint64
	ctx    *experiments.Context
	order  []experiments.Experiment
	golden map[string][]byte
}

// newPaperCold returns the workload; workers <= 0 fans each experiment's
// sweep across as many workers as the host has CPUs.
func newPaperCold(seed uint64, workers int) *paperCold {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &paperCold{
		seed: seed,
		ctx:  &experiments.Context{Scale: experiments.Quick, Seed: goldenSeed, Workers: workers},
	}
}

// setup reads the golden store and fixes the experiment order.
func (w *paperCold) setup() (int, int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, 0, err
	}
	golden, err := readGoldens(filepath.Join(root, goldenDir))
	if err != nil {
		return 0, 0, err
	}
	all := experiments.All()
	order := make([]experiments.Experiment, len(all))
	for i, j := range sim.NewRNG(w.seed).Perm(len(all)) {
		order[i] = all[j]
		if golden[all[j].ID] == nil {
			return 0, 0, fmt.Errorf("no golden artifact for %s", all[j].ID)
		}
	}
	w.order, w.golden = order, golden
	return 0, 0, nil
}

func (w *paperCold) pass(traced bool) (passResult, error) {
	phase.ResetStore()
	runtime.GC()
	before := readCounters(traced)
	pr := passResult{layers: newLayers()}
	var stats comm.Stats
	var spans layerTimes
	t0 := time.Now()
	for _, e := range w.order {
		pr.ops++
		o, err := w.regenerate(e, &spans)
		if err != nil {
			pr.failed++
			fmt.Fprintf(os.Stderr, "perfbench: paper-cold: %s: %v\n", e.ID, err)
			continue
		}
		stats.Add(o.Stats)
	}
	pr.wall = time.Since(t0)
	before.deltas(pr.layers, readCounters(traced), pr.wall)
	addFaultStats(pr.layers, stats)
	for id, d := range spans.experiments {
		pr.layers["experiments."+id+".s"] = d.Seconds()
	}
	pr.layers["runstore.encode_s"] = spans.encode.Seconds()
	pr.layers["runstore.verify_s"] = spans.verify.Seconds()
	pr.layers["report.render_s"] = spans.render.Seconds()
	return pr, nil
}

// layerTimes accumulates the host time of one paper-cold pass per layer.
type layerTimes struct {
	experiments            map[string]time.Duration
	encode, verify, render time.Duration
}

// regenerate runs one experiment and checks its artifact against the
// golden, adding the time of each step to spans.
func (w *paperCold) regenerate(e experiments.Experiment, spans *layerTimes) (*experiments.Outcome, error) {
	if spans.experiments == nil {
		spans.experiments = map[string]time.Duration{}
	}
	t := time.Now()
	o, err := e.Run(w.ctx)
	spans.experiments[e.ID] += lap(&t)
	if err != nil {
		return nil, err
	}
	report.WriteOutcome(io.Discard, o, true)
	spans.render += lap(&t)
	cfg, err := runstore.ExperimentConfig(e, w.ctx)
	if err != nil {
		return nil, err
	}
	a, err := runstore.New(cfg, o)
	if err != nil {
		return nil, err
	}
	enc, err := runstore.Encode(a)
	spans.encode += lap(&t)
	if err != nil {
		return nil, err
	}
	same := bytes.Equal(enc, w.golden[e.ID])
	spans.verify += lap(&t)
	if !same {
		return nil, goldenMismatch(a, w.golden[e.ID])
	}
	return o, nil
}

// goldenMismatch describes how an artifact differs from its golden.
func goldenMismatch(a *runstore.Artifact, golden []byte) error {
	base, err := runstore.Decode(golden)
	if err != nil {
		return fmt.Errorf("artifact differs from its golden, which does not decode: %w", err)
	}
	var b bytes.Buffer
	(&runstore.Report{Tol: runstore.DefaultTolerance, Diffs: []runstore.ArtifactDiff{runstore.Diff(base, a)}}).Write(&b)
	return fmt.Errorf("artifact differs from its golden:\n%s", b.String())
}

// lap returns the time since *t and resets *t to now.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// readGoldens returns the encoded bytes of every artifact in a store
// directory, by experiment ID, reading the manifest and artifact files
// directly: the store is only read, never opened for writing.
func readGoldens(dir string) (map[string][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, runstore.ManifestName))
	if err != nil {
		return nil, fmt.Errorf("reading the golden store: %w", err)
	}
	var man runstore.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("decoding the golden manifest: %w", err)
	}
	out := map[string][]byte{}
	newest := map[string]int64{}
	for _, e := range man.Entries {
		if _, seen := out[e.ID]; seen && e.CreatedUnix <= newest[e.ID] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return nil, fmt.Errorf("reading the golden store: %w", err)
		}
		out[e.ID], newest[e.ID] = data, e.CreatedUnix
	}
	return out, nil
}

// moduleRoot returns the root directory of the quantpar module: the
// nearest directory, from the working directory up, whose go.mod declares
// module quantpar.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(data) == "quantpar" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no quantpar module root above the working directory")
		}
		dir = parent
	}
}

// modulePath returns the module path a go.mod file declares.
func modulePath(gomod []byte) string {
	for _, line := range bytes.Split(gomod, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 2 && string(f[0]) == "module" {
			return string(f[1])
		}
	}
	return ""
}

// counters is a snapshot of the process-wide counters a pass reads as
// deltas.
type counters struct {
	hits, misses, events, builds int64
	cpu                          float64
	mem                          runtime.MemStats // read for traced passes only
}

func readCounters(traced bool) counters {
	c := counters{
		hits:   phase.Hits(),
		misses: phase.Misses(),
		events: phase.SimEvents(),
		builds: machine.Builds(),
		cpu:    cpuSeconds(),
	}
	if traced {
		runtime.ReadMemStats(&c.mem)
	}
	return c
}

// deltas records the layers every workload measures the same way: the
// change from c to end over a pass that took wall.
func (c *counters) deltas(layers map[string]float64, end counters, wall time.Duration) {
	hits, misses := end.hits-c.hits, end.misses-c.misses
	layers["phase.hits"] = float64(hits)
	layers["phase.misses"] = float64(misses)
	if hits+misses > 0 {
		layers["phase.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	layers["netsim.events"] = float64(end.events - c.events)
	layers["machine.builds"] = float64(end.builds - c.builds)
	layers["parsweep.parallelism"] = (end.cpu - c.cpu) / wall.Seconds()
	layers["go.alloc_mb"] = float64(end.mem.TotalAlloc-c.mem.TotalAlloc) / (1 << 20)
	layers["go.gc_cycles"] = float64(end.mem.NumGC - c.mem.NumGC)
}

// addFaultStats records the fault-protocol counters of a pass.
func addFaultStats(layers map[string]float64, s comm.Stats) {
	layers["faults.retries"] = float64(s.Retries)
	layers["faults.dropped"] = float64(s.Dropped)
	layers["faults.corrupted"] = float64(s.Corrupted)
	layers["faults.acks"] = float64(s.Acks)
}
