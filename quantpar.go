// Package quantpar reproduces "A Quantitative Comparison of Parallel
// Computation Models" (Juurlink & Wijshoff, SPAA 1996) as a Go library:
// simulators of the paper's three machines (MasPar MP-1, Parsytec GCel,
// TMC CM-5), a BSP-style superstep programming library that runs real
// parallel programs on them, the analytic cost models (BSP, MP-BSP,
// MP-BPRAM, E-BSP) with the paper's per-algorithm predictions, the four
// benchmark algorithms, and the experiment harness regenerating every
// table and figure of the paper's evaluation.
//
// This package is the facade: it re-exports the common entry points so
// that programs (see the examples directory) need a single import.
//
//	m, _ := quantpar.NewMachine("cm5")
//	res, _ := quantpar.RunMatMul(m, quantpar.MatMulConfig{
//		N: 256, Q: 4, Variant: quantpar.MatMulBSPStaggered,
//	})
//	fmt.Println(res.Mflops, "Mflops in", res.Run.Time, "simulated us")
package quantpar

import (
	"quantpar/internal/algorithms/apsp"
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/algorithms/samplesort"
	"quantpar/internal/bsplib"
	"quantpar/internal/calibrate"
	"quantpar/internal/core"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends" // registers the built-in machines
	"quantpar/internal/runstore"
	"quantpar/internal/sim"
	"quantpar/internal/trace"
)

// Machine is a simulated parallel platform.
type Machine = machine.Machine

// NewMachine builds a registered machine by registry name; Machines lists
// the registered names ("maspar", "gcel", "cm5", "cluster", ...).
func NewMachine(name string) (*Machine, error) { return machine.Build(name) }

// Machines returns the registered machine names, sorted.
func Machines() []string { return machine.Names() }

// ReferenceParams are the calibrated Table 1 parameters of a machine.
type ReferenceParams = machine.ReferenceParams

// Reference returns the calibrated parameters for "maspar", "gcel", "cm5".
func Reference(name string) (ReferenceParams, error) { return machine.Reference(name) }

// Superstep programming library: write P-processor programs against
// Context and run them on any machine.
type (
	// Context is a simulated processor's handle inside a Program.
	Context = bsplib.Context
	// Program is the per-processor body of a parallel program.
	Program = bsplib.Program
	// RunOptions configure a program run.
	RunOptions = bsplib.Options
	// RunResult reports simulated timing of a program run.
	RunResult = bsplib.RunResult
)

// Run executes a superstep program on a machine.
func Run(m *Machine, prog Program, opt RunOptions) (*RunResult, error) {
	return bsplib.Run(m, prog, opt)
}

// Trace records per-superstep execution timelines; attach one via
// RunOptions.Trace and render it or read its steps after the run.
type Trace = trace.Recorder

// NewTrace returns an empty superstep trace recorder.
func NewTrace() *Trace { return trace.NewRecorder() }

// Cost models of the paper (Section 2) and their per-algorithm
// predictions (Section 4).
type (
	BSP       = core.BSP
	MPBSP     = core.MPBSP
	MPBPRAM   = core.MPBPRAM
	EBSP      = core.EBSP
	AlgoCosts = core.AlgoCosts
	Series    = core.Series
)

// Matrix multiplication (Section 4.1).
type (
	MatMulConfig = matmul.Config
	MatMulResult = matmul.Result
)

// Matrix multiplication variants.
const (
	MatMulBSPUnstaggered = matmul.BSPUnstaggered
	MatMulBSPStaggered   = matmul.BSPStaggered
	MatMulBPRAM          = matmul.BPRAM
)

// RunMatMul executes the distributed matrix multiplication.
func RunMatMul(m *Machine, cfg MatMulConfig) (*MatMulResult, error) { return matmul.Run(m, cfg) }

// Bitonic sort (Section 4.2).
type (
	BitonicConfig = bitonic.Config
	BitonicResult = bitonic.Result
)

// Bitonic variants.
const (
	BitonicWord  = bitonic.Word
	BitonicBlock = bitonic.Block
)

// RunBitonic executes the distributed bitonic sort.
func RunBitonic(m *Machine, cfg BitonicConfig) (*BitonicResult, error) { return bitonic.Run(m, cfg) }

// Sample sort (Section 4.3).
type (
	SampleSortConfig = samplesort.Config
	SampleSortResult = samplesort.Result
)

// Sample sort variants.
const (
	SampleSortPadded    = samplesort.Padded
	SampleSortStaggered = samplesort.Staggered
)

// RunSampleSort executes the distributed sample sort.
func RunSampleSort(m *Machine, cfg SampleSortConfig) (*SampleSortResult, error) {
	return samplesort.Run(m, cfg)
}

// All-pairs shortest path (Section 4.4).
type (
	APSPConfig = apsp.Config
	APSPResult = apsp.Result
)

// RunAPSP executes the parallel Floyd algorithm.
func RunAPSP(m *Machine, cfg APSPConfig) (*APSPResult, error) { return apsp.Run(m, cfg) }

// Experiments: the per-table/figure harness.
type (
	Experiment        = experiments.Experiment
	ExperimentContext = experiments.Context
	Outcome           = experiments.Outcome
)

// Experiments returns every registered table/figure experiment.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one experiment ("table1", "fig01".."fig20").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// ResolveExperiment is the forgiving form of ExperimentByID: it accepts
// case-insensitive and differently zero-padded identifiers ("Fig4",
// "FIG04", "fig4" all resolve to "fig04") and lists the valid identifiers
// in its error.
func ResolveExperiment(id string) (Experiment, error) { return experiments.Resolve(id) }

// Run-artifact store (DESIGN.md §9): every experiment run serializes to a
// versioned, byte-deterministic artifact; stores cache runs by config
// fingerprint and diff them against committed baselines.
type (
	// Artifact is one stored run: fingerprinted config plus full result.
	Artifact = runstore.Artifact
	// ArtifactConfig is the result-determining identity of a run.
	ArtifactConfig = runstore.Config
	// ArtifactStore is a store directory of artifacts plus a manifest.
	ArtifactStore = runstore.Dir
	// ArtifactDiff compares one run against its baseline artifact.
	ArtifactDiff = runstore.ArtifactDiff
	// DiffReport aggregates artifact diffs for one regression gate run.
	DiffReport = runstore.Report
)

// OpenArtifactStore opens (creating if necessary) an artifact store.
func OpenArtifactStore(path string) (*ArtifactStore, error) { return runstore.Open(path) }

// LoadArtifacts loads every artifact in a store directory, sorted by ID.
func LoadArtifacts(dir string) ([]*Artifact, error) {
	s, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return s.LoadAll()
}

// StoreArtifact builds the fingerprinted artifact of an outcome and writes
// it into the store directory, returning the artifact path.
func StoreArtifact(dir string, cfg ArtifactConfig, o *Outcome) (string, error) {
	s, err := runstore.Open(dir)
	if err != nil {
		return "", err
	}
	a, err := runstore.New(cfg, o)
	if err != nil {
		return "", err
	}
	return s.Put(a, "quantpar", 0)
}

// DiffArtifacts compares a current artifact against its baseline.
func DiffArtifacts(base, cur *Artifact) ArtifactDiff { return runstore.Diff(base, cur) }

// ExperimentArtifactConfig builds the fingerprint configuration of one
// experiment under a run context.
func ExperimentArtifactConfig(e Experiment, ctx *ExperimentContext) (ArtifactConfig, error) {
	return runstore.ExperimentConfig(e, ctx)
}

// Calibration (Section 3): microbenchmarks extracting Table 1 parameters.
type CalibrationSpec = calibrate.Spec

// Calibrate runs the Table 1 microbenchmarks against a machine.
func Calibrate(m *Machine, spec CalibrationSpec, seed uint64) (calibrate.Params, error) {
	return calibrate.Fixed(m).Extract(spec, sim.NewRNG(seed))
}
