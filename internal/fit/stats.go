package fit

import "math"

// Summary holds descriptive statistics of a sample, used wherever the paper
// reports "the average of 100 experiments" with min/max error bars.
type Summary struct {
	Mean     float64
	Min, Max float64
}

// Summarize computes descriptive statistics of xs. It panics on an empty
// sample, which always indicates a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("fit: Summarize of empty sample")
	}
	s := Summary{Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	return s
}

// RelErr returns the signed relative error of predicted with respect to
// measured: (predicted - measured) / measured. Positive values mean the
// model overestimates the cost.
func RelErr(predicted, measured float64) float64 {
	if measured == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (predicted - measured) / measured
}

// MaxAbsRelErr returns the largest |RelErr| across paired series. It panics
// on mismatched lengths.
func MaxAbsRelErr(predicted, measured []float64) float64 {
	if len(predicted) != len(measured) {
		panic("fit: mismatched series")
	}
	worst := 0.0
	for i := range predicted {
		e := math.Abs(RelErr(predicted[i], measured[i]))
		if e > worst {
			worst = e
		}
	}
	return worst
}
