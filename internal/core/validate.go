package core

import (
	"fmt"
	"strings"

	"quantpar/internal/fit"
)

// Series is one predicted-versus-measured comparison over a parameter sweep
// (one curve pair of a paper figure).
type Series struct {
	Name      string
	XLabel    string
	Xs        []float64
	Measured  []float64
	Predicted []float64
}

// Check validates internal consistency.
func (s *Series) Check() error {
	if len(s.Xs) != len(s.Measured) || len(s.Xs) != len(s.Predicted) {
		return fmt.Errorf("core: series %q has mismatched lengths %d/%d/%d",
			s.Name, len(s.Xs), len(s.Measured), len(s.Predicted))
	}
	if len(s.Xs) == 0 {
		return fmt.Errorf("core: series %q is empty", s.Name)
	}
	return nil
}

// RelErrAt returns the signed relative prediction error at index i.
func (s *Series) RelErrAt(i int) float64 {
	return fit.RelErr(s.Predicted[i], s.Measured[i])
}

// MaxAbsRelErr returns the worst absolute relative error of the series.
func (s *Series) MaxAbsRelErr() float64 {
	return fit.MaxAbsRelErr(s.Predicted, s.Measured)
}

// Bias reports whether the model systematically over- or under-estimates:
// +1 if every point overestimates, -1 if every point underestimates, 0
// otherwise.
func (s *Series) Bias() int {
	over, under := true, true
	for i := range s.Xs {
		e := s.RelErrAt(i)
		if e < 0 {
			over = false
		}
		if e > 0 {
			under = false
		}
	}
	switch {
	case over && !under:
		return 1
	case under && !over:
		return -1
	default:
		return 0
	}
}

// Table renders the series as an aligned text table, the repository's
// stand-in for the paper's figures.
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	fmt.Fprintf(&b, "%10s %14s %14s %9s\n", s.XLabel, "measured(us)", "predicted(us)", "err")
	for i := range s.Xs {
		fmt.Fprintf(&b, "%10.0f %14.1f %14.1f %8.1f%%\n",
			s.Xs[i], s.Measured[i], s.Predicted[i], 100*s.RelErrAt(i))
	}
	return b.String()
}
