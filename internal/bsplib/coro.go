//go:build go1.23

// iter.Pull is Go 1.23 library. The build line above sets this file's Go
// version to 1.23, so go vet accepts the call, while go.mod stays at go
// 1.22: a main module's go line must be at least that of every module it
// requires, and the benchmark module in perfbench/, which requires this
// one, pins go 1.22.

package bsplib

import "iter"

// newWorker starts a worker: a coroutine that runs w.ctx's program,
// reports its end and waits for the next one. Only a program's
// runtime.Goexit ends it, so iter.Pull's stop function is not needed.
func newWorker() *worker {
	w := new(worker)
	w.next, _ = iter.Pull(func(yield func(bool) bool) {
		w.yield = yield
		for {
			w.inProgram = true
			w.ctx.run()
			w.inProgram = false
			yield(false)
		}
	})
	return w
}
