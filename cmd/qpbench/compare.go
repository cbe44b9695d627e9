package main

// Baseline parsing and metric comparison for the bench-regression gate.
// Kept free of I/O and process state so main_test.go can exercise the gate
// logic (snapshot parsing, tolerance classification, the blocking /
// advisory split) without running benchmarks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// FormatV1 identifies qpbench's canonical snapshot format.
const FormatV1 = "qpbench/v1"

// Record is one benchmark measurement: a name plus unit-keyed metrics
// (ns/op, B/op, allocs/op, and any b.ReportMetric extras).
type Record struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the canonical qpbench snapshot: what -o writes and what -diff
// reads.
type Report struct {
	Format     string   `json:"format"`
	Benchmarks []Record `json:"benchmarks"`
}

// Encode renders the report as deterministic, indented JSON (map keys are
// sorted by encoding/json, so identical measurements yield identical bytes).
func (r Report) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		panic(err) // plain data; cannot fail
	}
	return buf.Bytes()
}

// ParseBaseline reads a canonical qpbench snapshot into name-keyed records.
func ParseBaseline(data []byte) (map[string]Record, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("not a %s snapshot: %w", FormatV1, err)
	}
	if rep.Format != FormatV1 {
		return nil, fmt.Errorf("snapshot format %q, want %s", rep.Format, FormatV1)
	}
	out := make(map[string]Record, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		out[r.Name] = r
	}
	return out, nil
}

// Tolerances holds per-metric relative thresholds. Allocs and Events are
// blocking (an increase beyond them makes Diff report a regression); Ns and
// Bytes are advisory (reported, never blocking). Events defaults to zero
// because simulated-event counts are deterministic: any increase is a real
// regression, not noise.
type Tolerances struct {
	Allocs float64
	Ns     float64
	Bytes  float64
	Events float64
}

// Diff compares current records against a baseline. It returns
// human-readable comparison lines and whether any blocking regression
// (allocs/op up by more than tol.Allocs, sim-events/op up by more than
// tol.Events) was found. Benchmarks missing from
// the baseline are noted but never blocking, so a baseline covering only a
// subset still gates that subset.
func Diff(current []Record, base map[string]Record, tol Tolerances) (lines []string, regressed bool) {
	cur := append([]Record(nil), current...)
	sort.Slice(cur, func(i, j int) bool { return cur[i].Name < cur[j].Name })
	for _, rec := range cur {
		old, ok := base[rec.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%s: not in baseline (skipped)", rec.Name))
			continue
		}
		for _, unit := range sortedUnits(rec.Metrics) {
			newV := rec.Metrics[unit]
			oldV, ok := old.Metrics[unit]
			if !ok {
				continue
			}
			limit, blocking := tol.forUnit(unit)
			if limit < 0 {
				continue // unit not gated (e.g. sim-us/pt: simulated time is the goldens' job)
			}
			over := exceeds(oldV, newV, limit)
			switch {
			case over && blocking:
				regressed = true
				lines = append(lines, fmt.Sprintf("%s %s: %s -> %s (%s, exceeds %.0f%% tolerance) REGRESSION",
					rec.Name, unit, formatValue(oldV), formatValue(newV), change(oldV, newV), limit*100))
			case over:
				lines = append(lines, fmt.Sprintf("%s %s: %s -> %s (%s, advisory)",
					rec.Name, unit, formatValue(oldV), formatValue(newV), change(oldV, newV)))
			default:
				lines = append(lines, fmt.Sprintf("%s %s: %s -> %s (%s) ok",
					rec.Name, unit, formatValue(oldV), formatValue(newV), change(oldV, newV)))
			}
		}
	}
	return lines, regressed
}

// forUnit returns the relative tolerance for a unit and whether exceeding
// it blocks. A negative tolerance means the unit is not compared.
func (t Tolerances) forUnit(unit string) (limit float64, blocking bool) {
	switch unit {
	case "allocs/op":
		return t.Allocs, true
	case "sim-events/op":
		return t.Events, true
	case "ns/op":
		return t.Ns, false
	case "B/op":
		return t.Bytes, false
	}
	return -1, false
}

// exceeds reports whether new is worse than old by more than the relative
// tolerance. A zero baseline tolerates nothing: any increase exceeds it.
func exceeds(old, new float64, tol float64) bool {
	if old == 0 {
		return new > 0
	}
	return new > old*(1+tol)
}

// change renders the relative move, as a percentage for small moves and as
// an improvement factor when the new value is at least halved.
func change(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "unchanged"
		}
		return "+inf"
	}
	if new == 0 {
		return "down to 0"
	}
	ratio := new / old
	if ratio <= 0.5 {
		return fmt.Sprintf("%.1fx fewer", old/new)
	}
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}
