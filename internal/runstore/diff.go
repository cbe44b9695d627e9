package runstore

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
)

// DefaultTolerance is the relative series drift -diff accepts before
// declaring a regression. Simulated measurements are deterministic for a
// fixed config, so any drift at all means the code changed behaviour; the
// tolerance only grants headroom for deliberate small recalibrations.
const DefaultTolerance = 0.05

// SeriesDrift is the comparison of one series between baseline and current.
type SeriesDrift struct {
	Series string
	// MaxRelDrift is the largest relative point drift across the measured
	// and predicted values.
	MaxRelDrift float64
	// AtX is the sweep position of the largest drift.
	AtX string
	// Incomparable marks series whose sweeps no longer line up (missing
	// from one side, or different Xs); always a regression.
	Incomparable bool
	Detail       string
}

// CheckFlip is one shape-check verdict that changed between baseline and
// current.
type CheckFlip struct {
	Name string
	Base bool
	Cur  bool
}

// Regressed reports whether the flip is a pass-to-fail transition (the
// failing direction; fail-to-pass is reported but does not gate).
func (f CheckFlip) Regressed() bool { return f.Base && !f.Cur }

// ArtifactDiff is the full comparison of one run against its baseline.
type ArtifactDiff struct {
	ID string
	// MissingBaseline marks runs with no stored baseline; reported, never
	// a regression (new experiments must be committable).
	MissingBaseline bool
	// FingerprintMismatch warns that the baseline was produced by a
	// different configuration or module revision; the series diff still
	// runs, and drift decides.
	FingerprintMismatch bool
	Drifts              []SeriesDrift
	Flips               []CheckFlip
	// BytesDiffer names the parts whose canonical encodings differ from
	// the baseline's, empty when the bytes are equal. It fails no gate by
	// itself: drift within the tolerance changes bytes too.
	BytesDiffer []string
}

// Regression reports whether the diff fails the gate at the tolerance.
func (d *ArtifactDiff) Regression(tol float64) bool {
	if d.MissingBaseline {
		return false
	}
	for _, f := range d.Flips {
		if f.Regressed() {
			return true
		}
	}
	for _, s := range d.Drifts {
		if s.Incomparable || s.MaxRelDrift > tol {
			return true
		}
	}
	return false
}

// Diff compares a current artifact against its baseline: series by series,
// check verdict by check verdict, and then as canonical bytes.
func Diff(base, cur *Artifact) ArtifactDiff {
	d := ArtifactDiff{ID: cur.Config.ID, FingerprintMismatch: base.Fingerprint != cur.Fingerprint, BytesDiffer: bytesDiffer(base, cur)}

	// Series align by name; order changes alone are not drift.
	baseByName := make(map[string]*Series, len(base.Result.Series))
	for i := range base.Result.Series {
		baseByName[base.Result.Series[i].Name] = &base.Result.Series[i]
	}
	seen := make(map[string]bool, len(cur.Result.Series))
	for i := range cur.Result.Series {
		c := &cur.Result.Series[i]
		seen[c.Name] = true
		b, ok := baseByName[c.Name]
		if !ok {
			d.Drifts = append(d.Drifts, SeriesDrift{Series: c.Name, Incomparable: true, Detail: "no such series in baseline"})
			continue
		}
		d.Drifts = append(d.Drifts, diffSeries(b, c))
	}
	for i := range base.Result.Series {
		if name := base.Result.Series[i].Name; !seen[name] {
			d.Drifts = append(d.Drifts, SeriesDrift{Series: name, Incomparable: true, Detail: "series vanished from current run"})
		}
	}

	// Checks align by name too; a renamed check reads as vanish+appear and
	// is reported as a flip in the failing direction only when it vanished.
	curChecks := make(map[string]bool, len(cur.Result.Checks))
	for _, c := range cur.Result.Checks {
		curChecks[c.Name] = c.Pass
	}
	baseNames := make(map[string]bool, len(base.Result.Checks))
	for _, bc := range base.Result.Checks {
		baseNames[bc.Name] = true
		cp, ok := curChecks[bc.Name]
		if !ok {
			d.Flips = append(d.Flips, CheckFlip{Name: bc.Name + " (vanished)", Base: true, Cur: false})
			continue
		}
		if cp != bc.Pass {
			d.Flips = append(d.Flips, CheckFlip{Name: bc.Name, Base: bc.Pass, Cur: cp})
		}
	}
	for _, cc := range cur.Result.Checks {
		if !baseNames[cc.Name] && !cc.Pass {
			d.Flips = append(d.Flips, CheckFlip{Name: cc.Name + " (new)", Base: true, Cur: false})
		}
	}
	return d
}

// bytesDiffer returns the parts of an artifact whose canonical encodings
// differ between base and cur ("Config", "Result.Stats", ...), nil when
// the whole artifacts encode to the same bytes. A value that does not
// encode (a non-finite float) differs.
func bytesDiffer(base, cur *Artifact) []string {
	if sameEncoding(base, cur) {
		return nil
	}
	var out []string
	if !sameEncoding(base.Config, cur.Config) {
		out = append(out, "Config")
	}
	b, c := reflect.ValueOf(base.Result), reflect.ValueOf(cur.Result)
	for i := 0; i < b.NumField(); i++ {
		if !sameEncoding(b.Field(i).Interface(), c.Field(i).Interface()) {
			out = append(out, "Result."+b.Type().Field(i).Name)
		}
	}
	if out == nil {
		out = []string{"the artifact"}
	}
	return out
}

func sameEncoding(b, c any) bool {
	eb, errB := Encode(b)
	ec, errC := Encode(c)
	return errB == nil && errC == nil && bytes.Equal(eb, ec)
}

func diffSeries(b, c *Series) SeriesDrift {
	out := SeriesDrift{Series: c.Name}
	if len(b.Xs) != len(c.Xs) {
		out.Incomparable = true
		out.Detail = fmt.Sprintf("sweep changed: %d points in baseline, %d now", len(b.Xs), len(c.Xs))
		return out
	}
	for i := range b.Xs {
		if b.Xs[i] != c.Xs[i] {
			out.Incomparable = true
			out.Detail = fmt.Sprintf("sweep changed at point %d: x=%g in baseline, x=%g now", i, b.Xs[i], c.Xs[i])
			return out
		}
		for _, pair := range [2][2]float64{{b.Measured[i], c.Measured[i]}, {b.Predicted[i], c.Predicted[i]}} {
			if drift := relDrift(pair[0], pair[1]); drift > out.MaxRelDrift {
				out.MaxRelDrift = drift
				out.AtX = fmt.Sprintf("%g", b.Xs[i])
			}
		}
	}
	return out
}

// relDrift is |cur-base| scaled by |base| (or |cur| when the baseline is
// zero; zero-to-zero is no drift).
func relDrift(base, cur float64) float64 {
	if base == cur {
		return 0
	}
	den := math.Abs(base)
	if den == 0 {
		den = math.Abs(cur)
	}
	return math.Abs(cur-base) / den
}

// Report aggregates per-artifact diffs for one gate run.
type Report struct {
	Tol   float64
	Diffs []ArtifactDiff
}

// Regression reports whether any artifact fails the gate.
func (r *Report) Regression() bool {
	for i := range r.Diffs {
		if r.Diffs[i].Regression(r.Tol) {
			return true
		}
	}
	return false
}

// Write renders the report, one line per finding, then the count of
// artifacts whose bytes equal their baseline's, then a verdict line.
func (r *Report) Write(w io.Writer) {
	stable := 0
	for i := range r.Diffs {
		d := &r.Diffs[i]
		if d.MissingBaseline {
			fmt.Fprintf(w, "diff %-8s no baseline artifact (new experiment?)\n", d.ID)
			continue
		}
		if len(d.BytesDiffer) == 0 {
			stable++
		}
		if d.FingerprintMismatch {
			fmt.Fprintf(w, "diff %-8s warning: baseline fingerprint differs (config or module revision changed)\n", d.ID)
		}
		// findings counts the flips and drifts reported for d; bytes
		// that differ without either get a finding of their own.
		findings := 0
		for _, f := range d.Flips {
			verdict := "improved"
			if f.Regressed() {
				verdict = "REGRESSED"
			}
			fmt.Fprintf(w, "diff %-8s check %-45s %s (%s -> %s)\n", d.ID, f.Name, verdict, passStr(f.Base), passStr(f.Cur))
			findings++
		}
		for _, s := range d.Drifts {
			switch {
			case s.Incomparable:
				fmt.Fprintf(w, "diff %-8s series %-55s INCOMPARABLE: %s\n", d.ID, s.Series, s.Detail)
				findings++
			case s.MaxRelDrift > r.Tol:
				fmt.Fprintf(w, "diff %-8s series %-55s DRIFT %.2f%% at x=%s (tol %.2f%%)\n",
					d.ID, s.Series, 100*s.MaxRelDrift, s.AtX, 100*r.Tol)
				findings++
			case s.MaxRelDrift > 0:
				fmt.Fprintf(w, "diff %-8s series %-55s drift %.2f%% at x=%s (within tol)\n",
					d.ID, s.Series, 100*s.MaxRelDrift, s.AtX)
				findings++
			}
		}
		if findings == 0 && len(d.BytesDiffer) > 0 {
			fmt.Fprintf(w, "diff %-8s bytes differ in %s\n", d.ID, strings.Join(d.BytesDiffer, ", "))
		}
	}
	fmt.Fprintf(w, "diff: %d of %d artifacts byte-stable against baseline\n", stable, len(r.Diffs))
	if r.Regression() {
		fmt.Fprintln(w, "diff: REGRESSION against baseline")
	} else {
		fmt.Fprintf(w, "diff: no regression (%d artifacts, tol %.2f%%)\n", len(r.Diffs), 100*r.Tol)
	}
}

func passStr(p bool) string {
	if p {
		return "PASS"
	}
	return "FAIL"
}
