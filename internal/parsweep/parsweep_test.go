package parsweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalisation(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("positive worker count not passed through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive worker count must resolve to at least one worker")
	}
	if Workers(0) != Workers(-1) {
		t.Fatal("all non-positive values must resolve to the same default")
	}
}

// TestRunOrderPreserved is the engine's core contract: the result slice is
// indexed by task number for every worker count.
func TestRunOrderPreserved(t *testing.T) {
	const n = 97
	for _, workers := range []int{1, 2, 3, 8, 200} {
		got, err := Run(workers, n,
			func() (int, error) { return 0, nil },
			func(_ int, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunParallelMatchesSerial asserts byte-identical results between the
// inline serial path and every parallel worker count, with tasks whose
// value depends on the per-worker resource only through its (identical)
// construction - the factory-per-worker rule.
func TestRunParallelMatchesSerial(t *testing.T) {
	const n = 64
	run := func(workers int) []float64 {
		out, err := Run(workers, n,
			func() (*[1]float64, error) { return &[1]float64{3.25}, nil },
			func(res *[1]float64, i int) (float64, error) {
				// Stateful per-worker scratch: overwritten per task, so the
				// result is a pure function of (resource construction, i).
				res[0] = float64(i) * 1.5
				return res[0] + 0.125, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 16} {
		par := run(workers)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d diverges from serial at task %d: %g vs %g",
					workers, i, par[i], serial[i])
			}
		}
	}
}

func TestRunFactoryPerWorker(t *testing.T) {
	var built atomic.Int64
	_, err := Run(4, 32,
		func() (int64, error) { return built.Add(1), nil },
		func(_ int64, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n < 1 || n > 4 {
		t.Fatalf("factory ran %d times for 4 workers, want 1..4", n)
	}
}

func TestRunSerialPathSharesOneResource(t *testing.T) {
	calls := 0
	_, err := Run(1, 10,
		func() (int, error) { calls++; return 0, nil },
		func(_ int, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("serial path built %d resources, want exactly 1", calls)
	}
}

// TestRunDeterministicError: with several failing tasks, the error of the
// lowest-numbered one is returned regardless of scheduling.
func TestRunDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Run(workers, 50,
			func() (int, error) { return 0, nil },
			func(_ int, i int) (int, error) {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return 0, fmt.Errorf("task %d failed", i)
				}
				return i, nil
			})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: got error %v, want task 3's", workers, err)
		}
	}
}

func TestRunFactoryError(t *testing.T) {
	boom := errors.New("no machine")
	for _, workers := range []int{1, 3} {
		_, err := Run(workers, 5,
			func() (int, error) { return 0, boom },
			func(_ int, i int) (int, error) { return i, nil })
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: factory error not surfaced: %v", workers, err)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	out, err := Run(8, 0, func() (int, error) { return 0, nil },
		func(_ int, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: %v %v", out, err)
	}
	out, err = Run(8, 1, func() (int, error) { return 0, nil },
		func(_ int, i int) (int, error) { return i + 41, nil })
	if err != nil || len(out) != 1 || out[0] != 41 {
		t.Fatalf("n=1: %v %v", out, err)
	}
}

// TestRunClaimOrder: parallel workers claim the last task first, so the
// largest runs of an ascending grid start first; the serial path keeps
// index order.
func TestRunClaimOrder(t *testing.T) {
	const n = 10
	var (
		mu      sync.Mutex
		order   []int
		started sync.WaitGroup
	)
	started.Add(2)
	_, err := Run(2, n,
		func() (int, error) { return 0, nil },
		func(_ int, i int) (int, error) {
			mu.Lock()
			order = append(order, i)
			first := len(order) <= 2
			mu.Unlock()
			if first {
				// Neither worker claims again before both first tasks run.
				started.Done()
				started.Wait()
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := min(order[0], order[1]), max(order[0], order[1]); lo != n-2 || hi != n-1 {
		t.Fatalf("2 workers claimed %v first, want tasks %d and %d", order[:2], n-1, n-2)
	}

	order = order[:0]
	if _, err := Run(1, n,
		func() (int, error) { return 0, nil },
		func(_ int, i int) (int, error) { order = append(order, i); return i, nil }); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if i >= len(order) || order[i] != i {
			t.Fatalf("serial path ran %v, want index order", order)
		}
	}
}

// TestRunRecoversTaskPanic: a panicking task must not kill the process; it
// surfaces as a *PanicError carrying the panic value and a goroutine
// stack, selected by the same lowest-numbered rule as ordinary errors, on
// the serial and parallel paths alike.
func TestRunRecoversTaskPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Run(workers, 50,
			func() (int, error) { return 0, nil },
			func(_ int, i int) (int, error) {
				if i%7 == 5 { // panics at 5, 12, 19, ...
					panic(fmt.Sprintf("task %d exploded", i))
				}
				return i, nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want a *PanicError", workers, err)
		}
		if pe.Task != 5 {
			t.Fatalf("workers=%d: panic charged to task %d, want 5 (lowest)", workers, pe.Task)
		}
		if pe.Value != "task 5 exploded" {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "parsweep") {
			t.Fatalf("workers=%d: stack does not mention the package:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "task 5 panicked") {
			t.Fatalf("workers=%d: message %q", workers, err)
		}
	}
}

// TestRunPanicErrorUnwraps: a panic whose value is an error stays
// matchable through errors.Is, so the structured failures the simulators
// raise by panicking keep their identity across the sweep boundary.
func TestRunPanicErrorUnwraps(t *testing.T) {
	sentinel := errors.New("partitioned")
	_, err := Run(4, 8,
		func() (int, error) { return 0, nil },
		func(_ int, i int) (int, error) {
			if i == 2 {
				panic(fmt.Errorf("wrapped: %w", sentinel))
			}
			return i, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("sentinel not matchable through PanicError: %v", err)
	}
}
