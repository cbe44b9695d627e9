// Package parsweep is the deterministic parallel sweep engine behind the
// figure runners and calibration microbenchmarks: it fans a grid of
// independent simulation runs (one task per sweep-point x trial) across a
// pool of worker goroutines while keeping the results byte-identical to a
// serial execution.
//
// Determinism rests on three rules the engine enforces or assumes:
//
//  1. Per-worker resources. Machines and routers are stateful, so tasks
//     must never share one instance across goroutines. Each worker builds
//     its own private resource through the factory closure and threads it
//     through every task it executes. Route results are history-free
//     (each call prices one step from scratch), so which worker ran a
//     task does not change its value.
//  2. Ordered collection. Results land in a slice indexed by task number,
//     so the output ordering is a pure function of the task grid and
//     never of goroutine scheduling.
//  3. Per-task RNG streams. Tasks must derive their stream from the task
//     index (base.Split(uint64(i))), never consume a shared stream. A
//     shared stream makes a result depend on which worker drew first:
//     calibrate's TestSweeperWorkerCountInvariance prices each trial on
//     its own stream and compares worker counts, and the race detector
//     reports the shared draws.
//
// With Workers(1) the engine degenerates to an inline loop on the calling
// goroutine - exactly the historical serial path. Parallel workers claim
// tasks from the last index down: callers list their grids in ascending
// size, so the longest runs start first and the short ones fill the tail.
// Like a BSP superstep, a grid takes as long as its slowest worker.
package parsweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a recovered task panic is converted into. A
// panicking task would otherwise kill the whole process from a worker
// goroutine (Go panics do not cross goroutine boundaries); the engine
// recovers it, captures the stack, and reports it through the normal
// lowest-numbered-failure rule so a deterministic sweep fails with a
// deterministic error.
type PanicError struct {
	Task  int    // index of the panicking task
	Value any    // the value passed to panic
	Stack []byte // goroutine stack at the point of the panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parsweep: task %d panicked: %v\n%s", e.Task, e.Value, e.Stack)
}

// Unwrap exposes panic values that are themselves errors (the structured
// failures the simulators raise - delivery budgets, watchdog deadlines,
// partitions) to errors.Is / errors.As matching through the PanicError.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// runTask executes one task, converting a panic into a *PanicError.
func runTask[R, T any](task func(res R, i int) (T, error), res R, i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Task: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return task(res, i)
}

// Workers normalises a -j style worker-count flag: values <= 0 select
// GOMAXPROCS, anything else is used as given.
func Workers(j int) int {
	if j > 0 {
		return j
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes tasks 0..n-1 on up to workers goroutines and returns their
// results in task order. factory builds one resource per worker; task i
// receives its worker's resource and must not retain it. If any factory
// call or task fails, Run returns the error of the lowest-numbered failed
// task (factory errors count against the first task the worker would have
// claimed), so error reporting is as deterministic as the results. A task
// that panics is recovered and reported as a *PanicError under the same
// lowest-numbered rule, on the serial and parallel paths alike.
//
// workers <= 1 (or n <= 1) runs every task inline on one resource with no
// goroutines, in index order: the serial path. Parallel workers claim
// tasks from n-1 down to 0.
func Run[R, T any](workers, n int, factory func() (R, error), task func(res R, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		res, err := factory()
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v, err := runTask(task, res, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errAt    = n // task index of firstErr, for deterministic selection
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errAt {
			errAt, firstErr = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			res, ferr := factory()
			for {
				i := n - int(next.Add(1))
				if i < 0 {
					return
				}
				if ferr != nil {
					// The worker has no resource; charge the factory error
					// to the first task it would have run and stop claiming.
					fail(i, ferr)
					return
				}
				v, err := runTask(task, res, i)
				if err != nil {
					fail(i, err)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
