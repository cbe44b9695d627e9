// Package sim provides the discrete-event simulation kernel used by the
// machine simulators: simulated time measured in microseconds, a monotone
// radix event queue, and deterministic splittable random number generation.
//
// All simulated times in this repository are float64 microseconds, matching
// the units of the paper (Juurlink & Wijshoff, SPAA'96), whose machine
// parameters g, L, sigma and ell are all reported in microseconds.
package sim

// Time is a simulated time or duration in microseconds.
type Time = float64
