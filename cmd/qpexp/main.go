// Command qpexp reproduces the paper's evaluation: it runs any or all of
// the table/figure experiments on the simulated machines, prints measured-
// versus-predicted series, ASCII plots, and the shape checks recording
// whether each of the paper's qualitative findings holds.
//
// Usage:
//
//	qpexp                  # run everything at quick scale
//	qpexp -scale full      # run everything at the paper's scale
//	qpexp -run fig04,fig12 # run selected experiments
//	qpexp -j 4             # fan sweeps across 4 workers (same output)
//	qpexp -list            # list experiment identifiers
//	qpexp -out DIR         # store run artifacts (versioned JSON) in DIR
//	qpexp -cache DIR       # skip runs whose fingerprint is already in DIR
//	qpexp -diff DIR        # diff results against baseline artifacts in DIR
//	qpexp -faults F.json   # run on fault-injected machines (see internal/faults)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"quantpar/internal/experiments"
	"quantpar/internal/faults"
	"quantpar/internal/report"
	"quantpar/internal/runstore"
)

// options collects the per-invocation knobs of a qpexp run.
type options struct {
	run      string
	scale    string
	trials   int
	seed     uint64
	workers  int
	plot     bool
	csvDir   string
	outDir   string
	cacheDir string
	diffDir  string
	tol      float64
	faults   string
}

func main() {
	var opt options
	list := flag.Bool("list", false, "list experiments and exit")
	flag.StringVar(&opt.run, "run", "", "comma-separated experiment ids (default: all)")
	flag.StringVar(&opt.scale, "scale", "quick", "sweep scale: quick or full")
	flag.IntVar(&opt.trials, "trials", 0, "override trial count (0 = per-scale default)")
	flag.Uint64Var(&opt.seed, "seed", 1996, "experiment RNG seed")
	flag.IntVar(&opt.workers, "j", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial; output is identical for every value)")
	flag.BoolVar(&opt.plot, "plot", true, "render ASCII plots")
	flag.StringVar(&opt.csvDir, "csv", "", "directory to export per-series CSV data into")
	flag.StringVar(&opt.outDir, "out", "", "artifact store directory to write run artifacts into")
	flag.StringVar(&opt.cacheDir, "cache", "", "artifact store used as a cache: fingerprint hits replay the stored result instead of simulating, misses are stored back")
	flag.StringVar(&opt.diffDir, "diff", "", "baseline artifact store to diff results against; regressions exit nonzero")
	flag.Float64Var(&opt.tol, "tol", runstore.DefaultTolerance, "relative series drift tolerated by -diff before it counts as a regression")
	flag.StringVar(&opt.faults, "faults", "", "fault-spec JSON file: run every experiment on fault-injected machines (incompatible with -out/-cache/-diff)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// runtime/pprof drops the errors of its own writes, so both profiles
	// are built in memory and written out by writeProfile, which reports
	// a failed create, write or close.
	var cpuProf bytes.Buffer
	if *cpuProfile != "" {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			fmt.Fprintln(os.Stderr, "qpexp:", err)
			os.Exit(1)
		}
	}

	// The profiles must be flushed on every path, and deferred flushes
	// would be skipped by os.Exit, so the work runs in its own function.
	code := runAll(&opt)

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		code = writeProfile(*cpuProfile, &cpuProf, code)
	}
	if *memProfile != "" {
		var heapProf bytes.Buffer
		pprof.WriteHeapProfile(&heapProf) // writing into a Buffer cannot fail
		code = writeProfile(*memProfile, &heapProf, code)
	}
	os.Exit(code)
}

// writeProfile writes a profile to path and returns the exit code: code,
// or 1 if the profile could not be written.
func writeProfile(path string, prof *bytes.Buffer, code int) int {
	if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "qpexp:", err)
		return 1
	}
	return code
}

func runAll(opt *options) int {
	// Every drift comparison against NaN is false, so a NaN tolerance
	// would silently turn the -diff gate off.
	if math.IsNaN(opt.tol) || opt.tol < 0 {
		fmt.Fprintf(os.Stderr, "qpexp: -tol %v: want a non-negative tolerance\n", opt.tol)
		return 2
	}
	// Trials 0 selects the per-scale default, but the fingerprint records
	// the raw count, so a negative one would rerun the default under a
	// second fingerprint.
	if opt.trials < 0 {
		fmt.Fprintf(os.Stderr, "qpexp: -trials %d: want a non-negative count\n", opt.trials)
		return 2
	}
	ctx := &experiments.Context{Trials: opt.trials, Seed: opt.seed, Workers: opt.workers}
	if opt.faults != "" {
		// Fault-injected runs describe a deliberately degraded machine;
		// storing, caching, or diffing them against the golden artifacts
		// would poison the regression baseline.
		if opt.outDir != "" || opt.cacheDir != "" || opt.diffDir != "" {
			fmt.Fprintln(os.Stderr, "qpexp: -faults cannot be combined with -out, -cache, or -diff")
			return 2
		}
		data, err := os.ReadFile(opt.faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpexp:", err)
			return 2
		}
		spec, err := faults.DecodeSpec(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", opt.faults, err)
			return 2
		}
		ctx.Faults = &spec
	}
	switch opt.scale {
	case "quick":
		ctx.Scale = experiments.Quick
	case "full":
		ctx.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "qpexp: unknown scale %q\n", opt.scale)
		return 2
	}

	var selected []experiments.Experiment
	if opt.run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(opt.run, ",") {
			e, err := experiments.Resolve(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qpexp:", err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	// Artifact stores. -out and -cache may name the same directory; the
	// cache store doubles as the output store then.
	var outStore, cacheStore, baseStore *runstore.Dir
	var err error
	if opt.diffDir != "" {
		// Open creates a missing directory and reads one without a
		// manifest as an empty store, against which every experiment is
		// new and the diff passes: a baseline must already exist.
		if _, err := os.Stat(filepath.Join(opt.diffDir, runstore.ManifestName)); err != nil {
			fmt.Fprintf(os.Stderr, "qpexp: -diff %s holds no baseline: %v\n", opt.diffDir, err)
			return 2
		}
	}
	if opt.cacheDir != "" {
		if cacheStore, err = runstore.Open(opt.cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "qpexp:", err)
			return 2
		}
	}
	if opt.outDir != "" {
		if opt.outDir == opt.cacheDir {
			outStore = cacheStore
		} else if outStore, err = runstore.Open(opt.outDir); err != nil {
			fmt.Fprintln(os.Stderr, "qpexp:", err)
			return 2
		}
	}
	if opt.diffDir != "" {
		if baseStore, err = runstore.Open(opt.diffDir); err != nil {
			fmt.Fprintln(os.Stderr, "qpexp:", err)
			return 2
		}
	}
	wantArtifacts := outStore != nil || cacheStore != nil || baseStore != nil

	var outcomes []*experiments.Outcome
	diffReport := runstore.Report{Tol: opt.tol}
	for _, e := range selected {
		var (
			artifact *runstore.Artifact
			cached   bool
			cfg      runstore.Config
		)
		if wantArtifacts {
			if cfg, err = runstore.ExperimentConfig(e, ctx); err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
		}
		if cacheStore != nil {
			fp, err := runstore.Fingerprint(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
			if artifact, cached, err = cacheStore.Lookup(fp); err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
		}

		t0 := time.Now()
		var o *experiments.Outcome
		if cached {
			o = artifact.Outcome()
			report.FromArtifact(os.Stdout, artifact, opt.plot)
		} else {
			if o, err = e.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
			report.WriteOutcome(os.Stdout, o, opt.plot)
			if wantArtifacts {
				if artifact, err = runstore.New(cfg, o); err != nil {
					fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
					return 1
				}
			}
		}
		wallMS := float64(time.Since(t0)) / float64(time.Millisecond)

		if !cached && cacheStore != nil {
			if _, err := cacheStore.Put(artifact, "qpexp", wallMS); err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
		}
		if outStore != nil && outStore != cacheStore {
			ms := wallMS
			if cached {
				ms = 0
			}
			if _, err := outStore.Put(artifact, "qpexp", ms); err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
		}
		if baseStore != nil {
			base, ok, err := baseStore.ByID(e.ID)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
			if !ok {
				diffReport.Diffs = append(diffReport.Diffs, runstore.ArtifactDiff{ID: e.ID, MissingBaseline: true})
			} else {
				diffReport.Diffs = append(diffReport.Diffs, runstore.Diff(base, artifact))
			}
		}

		if opt.csvDir != "" {
			paths, err := report.ExportOutcome(opt.csvDir, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qpexp: %s: %v\n", e.ID, err)
				return 1
			}
			fmt.Printf("(exported %d files to %s)\n", len(paths), opt.csvDir)
		}
		if cached {
			fmt.Printf("(%s replayed from cache)\n\n", e.ID)
		} else {
			fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		}
		outcomes = append(outcomes, o)
	}
	report.Summary(os.Stdout, outcomes)

	code := 0
	if baseStore != nil {
		diffReport.Write(os.Stdout)
		if diffReport.Regression() {
			code = 1
		}
	}
	for _, o := range outcomes {
		if !o.Passed() {
			code = 1
		}
	}
	return code
}
