// Package simtime is a qpvet golden-file fixture for the sim.Time float64
// comparison check.
package simtime

import "quantpar/internal/sim"

func equal(a, b sim.Time) bool {
	return a == b // want "compares sim.Time"
}

func notEqual(x sim.Time, clocks []sim.Time) bool {
	return clocks[0] != x+1 // want "compares sim.Time"
}

func ordered(a, b sim.Time) bool { return a < b }

func tieBreak(a, b sim.Time) bool {
	return a == b //qpvet:ignore simtime -- fixture: suppressed exact comparison
}

type result struct {
	Elapsed sim.Time
	Steps   int
}

func idle(r result) bool {
	return r.Elapsed == 0 // want "compares sim.Time"
}

func stepsDone(r result) bool {
	return r.Steps == 0 // int comparison: clean
}
