package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/experiments"
)

// exactCounts are the per-layer metrics that are deterministic counts: they
// must repeat exactly across passes, runs and tracing. All but
// machine.builds must also repeat across worker counts; parsweep builds one
// machine per worker by design.
var exactCounts = []string{
	"machine.builds", "netsim.events", "phase.hits", "phase.misses",
	"bsplib.supersteps", "bsplib.comm_steps",
	"faults.retries", "faults.dropped", "faults.corrupted", "faults.acks",
}

// smallMix stands in for mix under -short: one cheap op per machine and
// algorithm kind, so the probe paths also run under the race detector.
var smallMix = []op{
	matmulOp("maspar", 8, matmul.BPRAM, 64),
	matmulOp("cm5", 4, matmul.BSPStaggered, 64),
	bitonicOp("gcel", bitonic.Block, 512),
	apspOp("gcel", 64),
}

func sameCounts(t *testing.T, what string, a, b passResult, names []string) {
	t.Helper()
	for _, name := range names {
		if a.layers[name] != b.layers[name] {
			t.Errorf("%s: %s = %v, then %v", what, name, a.layers[name], b.layers[name])
		}
	}
}

func mustSetup(t *testing.T, w workload) {
	t.Helper()
	if _, failed, err := w.setup(); err != nil || failed != 0 {
		t.Fatalf("set-up: err %v, %d ops failed", err, failed)
	}
}

// mustPass runs one pass; every op's outputs, and for the programs
// workloads its simulated outcome against the op's first run, are checked
// inside the pass, so a clean pass means they all held.
func mustPass(t *testing.T, w workload, traced bool) passResult {
	t.Helper()
	pr, err := w.pass(traced)
	if err != nil {
		t.Fatal(err)
	}
	if pr.failed != 0 {
		t.Fatalf("%d of %d ops failed", pr.failed, pr.ops)
	}
	return pr
}

func TestProgramsTracingLeavesTheProgramUnchanged(t *testing.T) {
	ops := mix
	if testing.Short() {
		ops = smallMix
	}
	for _, faulted := range []bool{false, true} {
		w := newPrograms(7, faulted, ops)
		mustSetup(t, w)
		plain := mustPass(t, w, false)
		traced := mustPass(t, w, true)
		sameCounts(t, "plain then traced pass", plain, traced, exactCounts)
		sameCounts(t, "traced then plain pass", traced, mustPass(t, w, false), exactCounts)

		again := newPrograms(7, faulted, ops)
		mustSetup(t, again)
		sameCounts(t, "two runs", plain, mustPass(t, again, false), exactCounts)

		l := traced.layers
		if faulted {
			if l["phase.hits"] != 0 || l["phase.misses"] != 0 || l["faults.retries"] == 0 || l["netsim.busy_s"] == 0 {
				t.Errorf("faulted pass: hits %v, misses %v, retries %v, netsim %v s; want every step simulated under faults",
					l["phase.hits"], l["phase.misses"], l["faults.retries"], l["netsim.busy_s"])
			}
		} else if l["phase.misses"] != 0 || l["netsim.events"] != 0 || l["phase.hits"] == 0 || l["faults.retries"] != 0 {
			t.Errorf("warm pass: hits %v, misses %v, events %v, retries %v; want every step replayed",
				l["phase.hits"], l["phase.misses"], l["netsim.events"], l["faults.retries"])
		}
		if l["bsplib.superstep_us.p64"] <= 0 || l["bsplib.superstep_us.p1024"] <= 0 {
			t.Errorf("empty superstep costs not measured: %v, %v", l["bsplib.superstep_us.p64"], l["bsplib.superstep_us.p1024"])
		}
	}
}

func TestPaperColdCountsRepeatAcrossOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the paper three times")
	}
	a := newPaperCold(3, 1)
	mustSetup(t, a)
	first := mustPass(t, a, false)
	sameCounts(t, "plain then traced pass", first, mustPass(t, a, true), exactCounts)

	b := newPaperCold(11, 1)
	mustSetup(t, b)
	if slices.EqualFunc(a.order, b.order, func(x, y experiments.Experiment) bool { return x.ID == y.ID }) {
		t.Fatal("seeds 3 and 11 give the same experiment order")
	}
	sameCounts(t, "another order", first, mustPass(t, b, false), exactCounts)
	if first.layers["phase.misses"] == 0 || first.layers["netsim.events"] == 0 {
		t.Errorf("cold pass simulated nothing: misses %v, events %v", first.layers["phase.misses"], first.layers["netsim.events"])
	}
}

// TestPaperColdCountsSameAtEveryWorkerCount checks that the counts do not
// depend on the worker count, machine.builds aside: parsweep builds one
// machine per worker. It can fail today. Two workers that price the same
// step at the same moment both miss the shared phase memo, so a pass at
// Workers > 1 may count a few more misses and events than at Workers 1.
func TestPaperColdCountsSameAtEveryWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the paper three times")
	}
	serial := newPaperCold(3, 1)
	mustSetup(t, serial)
	want := mustPass(t, serial, false)
	par := newPaperCold(3, runtime.NumCPU())
	mustSetup(t, par)
	for i := 0; i < 2; i++ {
		sameCounts(t, "Workers NumCPU", want, mustPass(t, par, false), exactCounts[1:])
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json in step with the
// workloads and metrics this package defines.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Why, Unit, Better string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}

	var want []named
	for _, w := range workloads {
		want = append(want, named{Name: w.name, Why: w.why})
	}
	if !slices.Equal(b.Workloads, want) {
		t.Errorf("workloads:\n got %v\nwant %v", b.Workloads, want)
	}
	want = []named{{Name: "wall_s", Unit: "s", Better: "lower"}, {Name: "setup_s", Unit: "s", Better: "lower"}, {Name: "max_rss_mb", Unit: "MB", Better: "lower"}}
	if !slices.Equal(b.EndToEnd, want) {
		t.Errorf("end_to_end:\n got %v\nwant %v", b.EndToEnd, want)
	}
	want = nil
	for _, m := range layerMetrics() {
		want = append(want, named{Name: m.name, Unit: m.unit, Better: m.better})
	}
	if !slices.Equal(b.PerLayer, want) {
		t.Errorf("per_layer:\n got %v\nwant %v", b.PerLayer, want)
	}
}
