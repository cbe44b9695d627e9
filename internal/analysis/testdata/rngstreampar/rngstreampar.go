// Package rngstreampar is a qpvet golden-file fixture for the parallel
// half of the rngstream check: RNGs escaping into goroutines or parsweep
// tasks without a per-task Split.
package rngstreampar

import (
	"quantpar/internal/parsweep"
	"quantpar/internal/sim"
)

// capturedByGoroutine leaks one stream into every goroutine: draws race and
// their interleaving depends on scheduling.
func capturedByGoroutine(base *sim.RNG, n int) {
	done := make(chan float64, n)
	for i := 0; i < n; i++ {
		go func() {
			done <- base.Float64() // want "captured by a go closure"
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// splitPerGoroutine is the sanctioned pattern: the capture only derives an
// independent child stream, each goroutine draws from its own.
func splitPerGoroutine(base *sim.RNG, n int) {
	done := make(chan float64, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			rng := base.Split(uint64(i))
			done <- rng.Float64()
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// passedToGoroutine hands the spawner's stream to the goroutine directly.
func passedToGoroutine(base *sim.RNG) {
	done := make(chan float64, 1)
	go func(r *sim.RNG) {
		done <- r.Float64()
	}(base) // want "passed to a goroutine"
	<-done
}

// capturedByTask shares one stream across parsweep's concurrent tasks.
func capturedByTask(base *sim.RNG, n int) ([]float64, error) {
	return parsweep.Run(0, n, noResource, func(_ struct{}, i int) (float64, error) {
		return base.Float64(), nil // want "captured by a parsweep task"
	})
}

// splitPerTask derives the stream from the task index: clean.
func splitPerTask(base *sim.RNG, n int) ([]float64, error) {
	return parsweep.Run(0, n, noResource, func(_ struct{}, i int) (float64, error) {
		rng := base.Split(uint64(i))
		return rng.Float64(), nil
	})
}

func noResource() (struct{}, error) { return struct{}{}, nil }

// passedIntoParsweep hands the same pointer to every worker's factory.
func passedIntoParsweep(base *sim.RNG, n int) ([]float64, error) {
	return parsweep.Run(0, n,
		factoryFrom(base), // want "passed into a parsweep call"
		func(r *sim.RNG, i int) (float64, error) {
			return r.Float64(), nil
		})
}

func factoryFrom(r *sim.RNG) func() (*sim.RNG, error) {
	return func() (*sim.RNG, error) { return r, nil }
}
