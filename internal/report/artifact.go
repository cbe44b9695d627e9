package report

import (
	"io"

	"quantpar/internal/runstore"
)

// FromArtifact renders a stored run artifact exactly as WriteOutcome
// renders the live outcome it was built from: tables, plots, notes, and
// check verdicts are pure functions of the stored result, so replaying an
// artifact is byte-identical to having watched the run.
func FromArtifact(w io.Writer, a *runstore.Artifact, plot bool) {
	WriteOutcome(w, a.Outcome(), plot)
}
