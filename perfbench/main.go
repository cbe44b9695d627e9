// Command perfbench is quantpar's end-to-end benchmark. One run executes
// one workload for a fixed budget of host seconds, checks every output the
// workload produces, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 75, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root through run.sh:
//
//	sh perfbench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// Every time the benchmark reports is host time: what running the
// simulator costs. Simulated time enters only the output checks. With
// --trace 0 a run reports the end-to-end metrics; with --trace 1 it
// alternates plain and traced passes and reports the per-layer metrics
// (see README.md and metrics.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest timed passes a plain run makes, whatever its
// budget, so that wall_s is a median of at least five samples. A traced run
// makes at least minTracedPasses plain and as many traced passes: its
// per-layer metrics have no bound, and fewer passes keep it affordable.
const (
	minPasses       = 5
	minTracedPasses = 3
)

// workload is one named benchmark input.
type workload interface {
	// setup prepares the workload's first pass from scratch. The run
	// calls it several times and times each call; it reports the
	// operations it ran and how many of them failed.
	setup() (ops, failed int, err error)
	// pass runs the workload once and checks every output. A traced pass
	// also measures the layers the workload passes through.
	pass(traced bool) (passResult, error)
}

// passResult is what one pass reports.
type passResult struct {
	wall   time.Duration
	ops    int
	failed int
	// layers holds the per-layer metrics of the pass, by name. Counts are
	// measured on every pass; a plain pass leaves the metrics that need
	// probes or heap statistics at 0.
	layers map[string]float64
}

// workloadDef names a workload and records why the benchmark has it.
type workloadDef struct {
	name string
	why  string
	open func(seed uint64) workload
}

var workloads = []workloadDef{
	{
		name: "paper-cold",
		why:  "regenerates all 25 quick experiments with an empty phase memo and checks each against its golden: the run every user and CI pass pays for",
		open: func(seed uint64) workload { return newPaperCold(seed, 0) },
	},
	{
		name: "programs-warm",
		why:  "algorithm Run calls after a set-up pass filled the phase memo: every step replays, so bsplib and program compute dominate and netsim does no work",
		open: func(seed uint64) workload { return newPrograms(seed, false, mix) },
	},
	{
		name: "programs-faulted",
		why:  "the same Run calls on fault-injected machines: faulty steps bypass the memo, so netsim and the reliable-delivery protocol do most of the work",
		open: func(seed uint64) workload { return newPrograms(seed, true, mix) },
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opt options
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 15, "host seconds of timed passes (at least 5 passes run)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = *trace == 1

	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minSetupSeconds is the least host time a run spends setting up. A cheap
// set-up (well under a millisecond for paper-cold and programs-faulted)
// then repeats hundreds of times, which keeps its median steady from run to
// run.
const minSetupSeconds = 0.2

// minSetups is the fewest set-ups a run makes.
const minSetups = 3

// setUp sets w up at least minSetups times and for at least
// minSetupSeconds, and returns the host seconds each set-up took.
func setUp(w workload) (secs []float64, ops, failed int, err error) {
	start := time.Now()
	for len(secs) < minSetups || time.Since(start).Seconds() < minSetupSeconds {
		t0 := time.Now()
		o, f, err := w.setup()
		if err != nil {
			return nil, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		ops += o
		failed += f
	}
	return secs, ops, failed, nil
}

// run executes one benchmark run and writes a human-readable account of
// it to log.
func run(opt options, log io.Writer) (*result, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == opt.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	def := workloads[i]
	w := def.open(opt.seed)
	res := &result{Metrics: map[string]metric{}}

	setups, ops, failed, err := setUp(w)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	res.Attempted += ops
	res.Failed += failed

	var plain, traced []passResult
	start := time.Now()
	for n := 0; ; n++ {
		enough := len(plain) >= minPasses
		if opt.trace {
			enough = len(plain) >= minTracedPasses && len(traced) >= minTracedPasses
		}
		if enough && time.Since(start).Seconds() >= opt.seconds {
			break
		}
		withTrace := opt.trace && n%2 == 1
		pr, err := w.pass(withTrace)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", def.name, n, err)
		}
		res.Attempted += pr.ops
		res.Failed += pr.failed
		if withTrace {
			traced = append(traced, pr)
		} else {
			plain = append(plain, pr)
		}
	}
	res.Correct = res.Failed == 0

	plainWall := median(walls(plain))
	if opt.trace {
		names := make([]string, 0, len(traced[0].layers))
		for name := range traced[0].layers {
			names = append(names, name)
		}
		for _, name := range names {
			vals := make([]float64, len(traced))
			for i, pr := range traced {
				vals[i] = pr.layers[name]
			}
			res.Metrics[name] = metric{median(vals), unitOf(name)}
		}
		res.Metrics["trace.overhead_s"] = metric{median(walls(traced)) - plainWall, "s"}
	} else {
		res.Metrics["wall_s"] = metric{plainWall, "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	}

	fmt.Fprintf(log, "workload %s, seed %d: %d set-ups, %d plain and %d traced passes, %d of %d ops failed\n",
		def.name, opt.seed, len(setups), len(plain), len(traced), res.Failed, res.Attempted)
	fmt.Fprintf(log, "set-up s: median of %d: %.6f\nplain pass s: %s\n", len(setups), median(setups), fmtSeconds(walls(plain)))
	if opt.trace {
		fmt.Fprintf(log, "traced pass s: %s\n", fmtSeconds(walls(traced)))
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(log, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

func walls(prs []passResult) []float64 {
	out := make([]float64, len(prs))
	for i, pr := range prs {
		out[i] = pr.wall.Seconds()
	}
	return out
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// median returns the median of xs (the mean of the middle two for an even
// count); it does not modify xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rusage returns the process's resource usage so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds returns the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}
