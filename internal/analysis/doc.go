// Package analysis is qpvet's static-analysis framework: a standard-library-
// only (go/ast + go/parser + go/types) loader and analyzer driver that
// mechanically enforces the invariants the reproduction's substitution
// strategy rests on (DESIGN.md §2): the discrete-event simulators must be
// deterministic, and repeated trials must differ only in their sim.RNG
// stream index.
//
// # Checks
//
//   - determinism: forbids wall-clock reads (time.Now, time.Since, ...),
//     global PRNG imports (math/rand, crypto/rand), and process entropy
//     (os.Getpid) inside internal/..., and flags ranging over a map when
//     the body feeds simulation state (sends, event pushes, time
//     accounting), which would make results depend on Go's randomized map
//     iteration order. Packages outside internal/ (cmd/, examples/) may
//     report wall-clock durations and are exempt.
//
//   - simtime: sim.Time is a float64 alias, so == and != between Time
//     values compile but are usually wrong; the analyzer flags them.
//
//   - rngstream: flags sim.NewRNG seeds computed by function calls and
//     RNGs declared outside a loop but consumed by calls inside it —
//     the bug class that breaks repeated-trial reproducibility; each
//     iteration must derive its own stream with rng.Split(i).
//
//   - faultrng: inside the fault-injection layer (packages named faults,
//     DESIGN.md §14), every fault decision must be drawn from a child
//     stream derived with rng.Split and keyed by the decision coordinates;
//     draws from retained RNGs (the decision root, struct fields, caller
//     arguments) and in-place stream mutation (Seed, SetState) are
//     flagged, because both make verdicts depend on frame-examination
//     order and break byte-identical replay.
//
//   - artifactenc: every struct declared in the runstore package must
//     stay canonically encodable, so map-typed, interface-typed, and
//     pointer/channel/function fields are flagged at vet time, before a
//     schema change breaks artifact byte-determinism.
//
// bsplib's buffer lifetimes are checked at run time instead: race builds
// overwrite every released lease and delivery view with poison (DESIGN.md
// §11).
//
// # Suppression
//
// A finding that is intentional is silenced in place with a directive
// naming the check, either trailing the offending line or on the line
// above it; everything after "--" is a free-form justification:
//
//	if h[i].At != h[j].At { //qpvet:ignore simtime -- exact tie-break by design
//
//	//qpvet:ignore determinism rngstream -- fixture exercises both
//	...
//
// A bare //qpvet:ignore suppresses every check on that line. Suppressions
// are deliberately line-scoped: broad opt-outs would erode the invariants
// the suite exists to protect. They are also audited: a directive that
// suppresses nothing, or names an unknown check, is reported as stale, so
// opt-outs whose finding has since been fixed cannot linger.
//
// # Driver
//
// cmd/qpvet loads the module, runs the whole suite with the audit, and
// prints findings and stale directives in file:line:col form.
// `go run ./cmd/qpvet ./...` is part of the tier-1 gate (ci.sh) and must
// exit 0; TestRepoIsClean runs the same check in-tree.
package analysis
