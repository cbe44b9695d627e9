// Package trace records per-superstep execution timelines of programs run
// on the superstep engine: what each step cost in local computation and
// communication, how many messages and bytes it moved, and its h-relation
// class. Traces support the kind of post-mortem the paper performs when a
// prediction misses - identifying which superstep family deviates from its
// model cost.
package trace

import (
	"fmt"
	"io"
	"sync"

	"quantpar/internal/sim"
)

// Superstep is one recorded engine step.
type Superstep struct {
	Index   int
	Barrier bool
	// Compute is the step's lockstep-maximum charged local computation;
	// Wall is the step's total contribution to the makespan (compute plus
	// communication).
	Compute sim.Time
	Wall    sim.Time
	// Msgs and Bytes count the routed traffic; H is the h-relation class
	// (max fan-in/fan-out) and Active the number of communicating
	// processors.
	Msgs, Bytes int
	H, Active   int
	// CommSteps counts priced word steps (SIMD streams expand).
	CommSteps int
}

// Comm returns the step's communication share of the wall time.
func (s Superstep) Comm() sim.Time {
	c := s.Wall - s.Compute
	if c < 0 {
		return 0
	}
	return c
}

// Recorder accumulates superstep records. It is safe for use by the engine
// (which records from the goroutine running bsplib.Run) and by concurrent
// readers after the run completes.
type Recorder struct {
	mu    sync.Mutex
	steps []Superstep
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one superstep.
func (r *Recorder) Record(s Superstep) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Index = len(r.steps)
	r.steps = append(r.steps, s)
}

// Steps returns a copy of the recorded timeline.
func (r *Recorder) Steps() []Superstep {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Superstep(nil), r.steps...)
}

// Len returns the number of recorded supersteps.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.steps)
}

// Totals aggregates the timeline.
type Totals struct {
	Supersteps  int
	Compute     sim.Time
	Comm        sim.Time
	Msgs, Bytes int
	// MaxH is the largest h-relation routed.
	MaxH int
}

// Totals computes aggregate statistics.
func (r *Recorder) Totals() Totals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t Totals
	t.Supersteps = len(r.steps)
	for _, s := range r.steps {
		t.Compute += s.Compute
		t.Comm += s.Comm()
		t.Msgs += s.Msgs
		t.Bytes += s.Bytes
		if s.H > t.MaxH {
			t.MaxH = s.H
		}
	}
	return t
}

// Render formats the timeline as an aligned table, collapsing runs of
// supersteps with identical traffic shape (msgs, h, active) into one line
// with a repetition count - the natural view of iterative algorithms.
func (r *Recorder) Render(w io.Writer) {
	steps := r.Steps()
	fmt.Fprintf(w, "%6s %5s %12s %12s %8s %10s %5s %7s\n",
		"steps", "barr", "compute(us)", "comm(us)", "msgs", "bytes", "h", "active")
	i := 0
	for i < len(steps) {
		j := i
		var comp, commT sim.Time
		for j < len(steps) && sameShape(steps[j], steps[i]) {
			comp += steps[j].Compute
			commT += steps[j].Comm()
			j++
		}
		n := j - i
		label := fmt.Sprintf("%d", i)
		if n > 1 {
			label = fmt.Sprintf("%d-%d", i, j-1)
		}
		fmt.Fprintf(w, "%6s %5v %12.1f %12.1f %8d %10d %5d %7d\n",
			label, steps[i].Barrier, comp, commT,
			n*steps[i].Msgs, n*steps[i].Bytes, steps[i].H, steps[i].Active)
		i = j
	}
	t := r.Totals()
	fmt.Fprintf(w, "total: %d supersteps, %.1f us compute, %.1f us comm, %d msgs, %d bytes, max h=%d\n",
		t.Supersteps, t.Compute, t.Comm, t.Msgs, t.Bytes, t.MaxH)
}

func sameShape(a, b Superstep) bool {
	return a.Barrier == b.Barrier && a.Msgs == b.Msgs && a.H == b.H && a.Active == b.Active
}
