// Package runstore is the versioned run-artifact store behind the
// measurement pipeline: every experiment run serializes to a
// byte-deterministic JSON artifact carrying its configuration fingerprint,
// the measured-versus-predicted series, the shape-check verdicts, and the
// aggregated router statistics of the run. Identical configurations always
// produce identical artifact bytes (DESIGN.md §9), which is what makes the
// store usable as a cache (skip any run whose fingerprint already has an
// artifact) and as a regression baseline (diff a fresh run against a
// committed artifact set and fail on drift).
//
// The schema deliberately contains no map-typed and no any-typed fields:
// map iteration order would leak into the encoding and break the
// byte-determinism contract. Encode rejects both on every artifact it
// writes.
package runstore

import (
	"fmt"
	"sort"
	"time"

	"quantpar/internal/comm"
	"quantpar/internal/core"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
)

// SchemaVersion identifies the artifact document layout. Bump it whenever a
// field is added, removed, or changes meaning; decoders reject unknown
// versions rather than misread them.
const SchemaVersion = 1

// ModuleVersion names the producing module revision that fingerprints
// incorporate: artifacts written by a semantically different simulation are
// never mistaken for cache hits. Bump it together with intentional changes
// to simulated numbers (machine constants, router mechanics, RNG layout).
const ModuleVersion = "quantpar/sim-v3"

// Artifact is one stored run: a fingerprinted configuration plus the full
// result. Encoding an Artifact with Encode is byte-deterministic.
type Artifact struct {
	Schema      int
	Fingerprint string // hex SHA-256 of the canonical Config encoding
	Config      Config
	Result      Result
}

// Config is the portion of a run's identity that determines its results.
// Worker counts, output directories, and plotting options are deliberately
// absent: they may not change a single simulated number (the parsweep
// determinism contract), so they must not change the fingerprint either.
type Config struct {
	// Kind names the artifact producer. Its one value is "experiment";
	// it stays in the schema because every stored fingerprint covers it.
	Kind string
	// ID is the experiment identifier ("fig04", "table1", ...).
	ID    string
	Title string
	// Scale is "quick" or "full".
	Scale string
	// Trials is the requested per-point trial count; 0 means each runner's
	// per-scale default.
	Trials int
	Seed   uint64
	// Machines records the reference parameters of every simulated
	// platform, sorted by name: a recalibration changes the fingerprint.
	Machines []MachineParams
	// Module is the producing module revision (ModuleVersion).
	Module string
}

// MachineParams is one machine's reference-parameter row (Table 1 plus the
// E-BSP T_unb fit), flattened to scalars for canonical encoding.
type MachineParams struct {
	Name                string
	G, L, Sigma, Ell    float64
	TunbA, TunbB, TunbC float64
}

// Result is the outcome payload of an artifact. ID and Title are the
// runner's own (a runner may title its outcome differently from its
// registry entry), so reconstruction is lossless.
type Result struct {
	ID     string
	Title  string
	Series []Series
	Checks []Check
	Extras []string
	Stats  CommStats
}

// Series mirrors core.Series in schema-owned form.
type Series struct {
	Name      string
	XLabel    string
	Xs        []float64
	Measured  []float64
	Predicted []float64
}

// Check mirrors experiments.Check: one shape-assertion verdict.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// CommStats mirrors comm.Stats: the run's aggregated router counters.
type CommStats struct {
	Msgs        int
	Bytes       int
	Waves       int
	Conflicts   int
	Stalls      int
	BufferFulls int
	MaxLinkLoad int
	HopSum      int
}

// Manifest indexes the artifacts of one store directory. Unlike artifacts,
// the manifest carries per-run metadata (wall-clock timing, creation time)
// and is therefore not byte-deterministic; everything hashed or diffed
// lives in the artifact files themselves.
type Manifest struct {
	Schema  int
	Tool    string
	Entries []Entry
}

// Entry is one manifest row. Entries are sorted by ID then Fingerprint.
type Entry struct {
	ID          string
	Fingerprint string
	File        string // artifact file name, relative to the store directory
	ContentHash string // hex SHA-256 of the artifact file bytes
	Passed      bool
	// WallMS is the wall-clock duration of the run that produced the
	// artifact, in milliseconds; zero for cache hits. Timing metadata lives
	// here, outside the artifact, precisely because artifact bytes must be
	// identical across runs of one configuration.
	WallMS float64
	// CreatedUnix is the manifest-update time in Unix seconds.
	CreatedUnix int64
}

// --- conversions between live structs and the schema ---

// machineKeys lists every platform whose reference parameters enter the
// fingerprint, in canonical order.
var machineKeys = []string{"cm5", "gcel", "maspar"}

// ReferenceMachines returns the MachineParams rows for the standard
// platforms, sorted by name.
func ReferenceMachines() ([]MachineParams, error) {
	out := make([]MachineParams, 0, len(machineKeys))
	for _, key := range machineKeys {
		ref, err := machine.Reference(key)
		if err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
		out = append(out, MachineParams{
			Name: key, G: ref.G, L: ref.L, Sigma: ref.Sigma, Ell: ref.Ell,
			TunbA: ref.TunbA, TunbB: ref.TunbB, TunbC: ref.TunbC,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ScaleString names an experiments.Scale for configs and flags.
func ScaleString(s experiments.Scale) string {
	if s == experiments.Full {
		return "full"
	}
	return "quick"
}

// ExperimentConfig builds the fingerprint configuration of one experiment
// under the given run context.
func ExperimentConfig(e experiments.Experiment, ctx *experiments.Context) (Config, error) {
	machines, err := ReferenceMachines()
	if err != nil {
		return Config{}, err
	}
	return Config{
		Kind:     "experiment",
		ID:       e.ID,
		Title:    e.Title,
		Scale:    ScaleString(ctx.Scale),
		Trials:   ctx.Trials,
		Seed:     ctx.Seed,
		Machines: machines,
		Module:   ModuleVersion,
	}, nil
}

// New assembles a fingerprinted artifact from a configuration and an
// outcome.
func New(cfg Config, o *experiments.Outcome) (*Artifact, error) {
	fp, err := Fingerprint(cfg)
	if err != nil {
		return nil, err
	}
	a := &Artifact{
		Schema:      SchemaVersion,
		Fingerprint: fp,
		Config:      cfg,
		Result: Result{
			ID:     o.ID,
			Title:  o.Title,
			Extras: append([]string(nil), o.Extra...),
			Stats: CommStats{
				Msgs: o.Stats.Msgs, Bytes: o.Stats.Bytes, Waves: o.Stats.Waves,
				Conflicts: o.Stats.Conflicts, Stalls: o.Stats.Stalls,
				BufferFulls: o.Stats.BufferFulls, MaxLinkLoad: o.Stats.MaxLinkLoad,
				HopSum: o.Stats.HopSum,
			},
		},
	}
	for i := range o.Series {
		s := &o.Series[i]
		a.Result.Series = append(a.Result.Series, Series{
			Name:      s.Name,
			XLabel:    s.XLabel,
			Xs:        append([]float64(nil), s.Xs...),
			Measured:  append([]float64(nil), s.Measured...),
			Predicted: append([]float64(nil), s.Predicted...),
		})
	}
	for _, c := range o.Checks {
		a.Result.Checks = append(a.Result.Checks, Check{Name: c.Name, Pass: c.Pass, Detail: c.Detail})
	}
	return a, nil
}

// Outcome reconstructs the live experiments.Outcome an artifact was built
// from. Rendering the reconstruction produces byte-identical report output.
func (a *Artifact) Outcome() *experiments.Outcome {
	o := &experiments.Outcome{
		ID:    a.Result.ID,
		Title: a.Result.Title,
		Extra: append([]string(nil), a.Result.Extras...),
		Stats: comm.Stats{
			Msgs: a.Result.Stats.Msgs, Bytes: a.Result.Stats.Bytes,
			Waves: a.Result.Stats.Waves, Conflicts: a.Result.Stats.Conflicts,
			Stalls: a.Result.Stats.Stalls, BufferFulls: a.Result.Stats.BufferFulls,
			MaxLinkLoad: a.Result.Stats.MaxLinkLoad, HopSum: a.Result.Stats.HopSum,
		},
	}
	for i := range a.Result.Series {
		s := &a.Result.Series[i]
		o.Series = append(o.Series, core.Series{
			Name:      s.Name,
			XLabel:    s.XLabel,
			Xs:        append([]float64(nil), s.Xs...),
			Measured:  append([]float64(nil), s.Measured...),
			Predicted: append([]float64(nil), s.Predicted...),
		})
	}
	for _, c := range a.Result.Checks {
		o.Checks = append(o.Checks, experiments.Check{Name: c.Name, Pass: c.Pass, Detail: c.Detail})
	}
	return o
}

// Passed reports whether every check verdict of the artifact passed.
func (a *Artifact) Passed() bool {
	for _, c := range a.Result.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// now is the manifest timestamp source. Only manifests are stamped with
// wall-clock time; artifacts must stay byte-deterministic and never see it.
func now() int64 {
	return time.Now().Unix() //qpvet:ignore determinism -- manifest bookkeeping, never enters simulation
}
