// Command qpbench runs the figure/table benchmarks in-process, emits a
// canonical BENCH_*.json snapshot, and diffs ns/op, B/op, allocs/op, and
// sim-events/op against committed baselines with per-metric tolerances — a
// benchstat-style regression gate for the zero-copy message pipeline and
// the phase memo cache.
//
// Usage:
//
//	qpbench                             # run every figure/table benchmark
//	qpbench -quick                      # table1 + fig03 + fig04 only
//	qpbench -o BENCH_memo.json          # write the canonical snapshot
//	qpbench -quick -diff BENCH_memo.json
//	                                    # run and compare against the baseline
//
// Every benchmark runs the quick-scale sweep, one iteration per sample.
// Each benchmark is sampled three times and every metric keeps its
// per-sample minimum (the benchstat convention: the least-interfered-with
// run is the honest one). The phase memo store is reset at the start of
// each benchmark, so sample one runs cold and the later samples replay it:
// the reported sim-events/op — events actually simulated, cache replays
// counting zero — is the steady-state warm count, deterministic and
// independent of which benchmarks ran earlier in the process.
//
// -diff names one baseline snapshot in qpbench's canonical format. An
// allocs/op increase beyond 10% or any sim-events/op increase (the count
// is deterministic, so any increase is real) against the baseline is a
// blocking regression: qpbench prints it and exits 1. Wall-clock ns/op
// drift beyond 25% and B/op drift beyond 10% are reported as advisory
// only, because single-iteration timings on shared CI hardware are too
// noisy to gate on. Baselines that predate a metric simply don't gate it.
//
// qpbench exits 0 on success, 1 on a benchmark failure or a blocking
// regression, and 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"quantpar/internal/experiments"
	"quantpar/internal/phase"
)

// figureBenches maps experiment IDs to the benchmark names used by
// bench_test.go (and therefore by BENCH_memo.json), in run order.
var figureBenches = []struct{ id, name string }{
	{"table1", "BenchmarkTable1Params"},
	{"fig01", "BenchmarkFig01MasPar1hRelations"},
	{"fig02", "BenchmarkFig02MasParPartialPerm"},
	{"fig03", "BenchmarkFig03MatMulMPBSPMasPar"},
	{"fig04", "BenchmarkFig04MatMulBSPCM5"},
	{"fig05", "BenchmarkFig05BitonicMasPar"},
	{"fig06", "BenchmarkFig06BitonicGCel"},
	{"fig07", "BenchmarkFig07HHPermGCel"},
	{"fig08", "BenchmarkFig08MatMulBPRAMMasPar"},
	{"fig09", "BenchmarkFig09MatMulBPRAMCM5"},
	{"fig10", "BenchmarkFig10BitonicBPRAMMasPar"},
	{"fig11", "BenchmarkFig11BitonicBPRAMGCel"},
	{"fig12", "BenchmarkFig12APSPMasPar"},
	{"fig13", "BenchmarkFig13APSPGCel"},
	{"fig14", "BenchmarkFig14MultinodeScatterGCel"},
	{"fig15", "BenchmarkFig15APSPCM5"},
	{"fig16", "BenchmarkFig16MatMulModelsCM5"},
	{"fig17", "BenchmarkFig17BitonicModelsMasPar"},
	{"fig18", "BenchmarkFig18SortDuelGCel"},
	{"fig19", "BenchmarkFig19VendorMasPar"},
	{"fig20", "BenchmarkFig20VendorCM5"},
	{"concl1", "BenchmarkConcl1MsgGranularity"},
}

// quickIDs is the -quick subset: the three benchmarks the issue tracks
// (Table 1 calibration plus the two matmul figures whose allocation churn
// motivated the zero-copy pipeline).
var quickIDs = []string{"table1", "fig03", "fig04"}

func nameOf(id string) (string, bool) {
	for _, fb := range figureBenches {
		if fb.id == id {
			return fb.name, true
		}
	}
	return "", false
}

func main() {
	quick := flag.Bool("quick", false, "run only the quick subset (table1, fig03, fig04)")
	out := flag.String("o", "", "write the canonical qpbench JSON snapshot to this file")
	diff := flag.String("diff", "", "baseline snapshot to compare against (qpbench canonical format)")
	testing.Init()
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "qpbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	// testing.Init registered test.benchtime, so setting it cannot fail.
	_ = flag.Set("test.benchtime", "1x")

	ctx := experiments.DefaultContext()
	selected := quickIDs
	if !*quick {
		selected = make([]string, 0, len(figureBenches))
		for _, fb := range figureBenches {
			selected = append(selected, fb.id)
		}
	}

	report := Report{Format: FormatV1}
	failed := false
	for _, id := range selected {
		name, _ := nameOf(id)
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench:", err)
			os.Exit(2)
		}
		rec, err := runBenchmark(e, name, ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpbench: %s: %v\n", name, err)
			failed = true
			continue
		}
		fmt.Println(rec.BenchLine())
		report.Benchmarks = append(report.Benchmarks, rec)
	}

	if *out != "" {
		if err := os.WriteFile(*out, report.Encode(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "qpbench:", err)
			os.Exit(2)
		}
	}

	regressed := false
	if *diff != "" {
		data, err := os.ReadFile(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpbench:", err)
			os.Exit(2)
		}
		base, err := ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpbench: %s: %v\n", *diff, err)
			os.Exit(2)
		}
		var lines []string
		lines, regressed = Diff(report.Benchmarks, base, Tolerances{Allocs: 0.10, Ns: 0.25, Bytes: 0.10, Events: 0})
		for _, l := range lines {
			fmt.Printf("diff %s: %s\n", *diff, l)
		}
	}

	if failed || regressed {
		os.Exit(1)
	}
}

// runBenchmark measures one experiment with the same loop as
// bench_test.go's benchExperiment: each iteration replays the experiment,
// shape-check failures abort, and the mean simulated microseconds per data
// point and the simulated-event count ride along as extra metrics. The
// benchmark is sampled three times, keeping every metric's per-sample
// minimum; the phase memo store is cleared once up front, so the first
// sample fills it, the later samples replay it, and the sim-events/op
// minimum is the deterministic steady-state count — unaffected by whatever
// the process cached before this benchmark.
func runBenchmark(e experiments.Experiment, name string, ctx *experiments.Context) (Record, error) {
	const samples = 3
	var rec Record
	phase.ResetStore()
	for s := 0; s < samples; s++ {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var simTime float64
			var points int
			ev0 := phase.SimEvents()
			for i := 0; i < b.N; i++ {
				o, err := e.Run(ctx)
				if err != nil {
					runErr = err
					b.Fatal(err)
				}
				if !o.Passed() {
					for _, c := range o.Checks {
						if !c.Pass {
							runErr = fmt.Errorf("%s: %s: %s", e.ID, c.Name, c.Detail)
							b.Fatal(runErr)
						}
					}
				}
				simTime = 0
				points = 0
				for _, s := range o.Series {
					for _, m := range s.Measured {
						simTime += m
						points++
					}
				}
			}
			if points > 0 {
				b.ReportMetric(simTime/float64(points), "sim-us/pt")
			}
			b.ReportMetric(float64(phase.SimEvents()-ev0)/float64(b.N), "sim-events/op")
		})
		if runErr != nil {
			return Record{}, runErr
		}
		if r.N == 0 {
			return Record{}, fmt.Errorf("benchmark produced no iterations")
		}
		m := map[string]float64{
			"ns/op":     float64(r.NsPerOp()),
			"B/op":      float64(r.AllocedBytesPerOp()),
			"allocs/op": float64(r.AllocsPerOp()),
		}
		for unit, v := range r.Extra {
			m[unit] = v
		}
		if s == 0 {
			rec = Record{Name: name, Iterations: r.N, Metrics: m}
			continue
		}
		for unit, v := range m {
			if old, ok := rec.Metrics[unit]; !ok || v < old {
				rec.Metrics[unit] = v
			}
		}
	}
	return rec, nil
}

// BenchLine renders the record in the standard `go test -bench` shape.
func (r Record) BenchLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s\t%8d", r.Name, r.Iterations)
	for _, unit := range []string{"ns/op", "sim-us/pt", "sim-events/op", "B/op", "allocs/op"} {
		if v, ok := r.Metrics[unit]; ok {
			fmt.Fprintf(&sb, "\t%s %s", formatValue(v), unit)
		}
	}
	return sb.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// sortedUnits returns the record's metric units in a stable order.
func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}
