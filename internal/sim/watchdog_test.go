package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestEventQueueRejectsTimeTravel pins the causality guard: pushing an
// event earlier than the last popped timestamp, or at a negative time,
// must panic with a message naming the queue's router and the times.
func TestEventQueueRejectsTimeTravel(t *testing.T) {
	expectPanic := func(t *testing.T, fn func()) (msg string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("time-travel push did not panic")
			}
			s, ok := r.(string)
			if !ok {
				t.Fatalf("time-travel panic carried %T, want string", r)
			}
			msg = s
		}()
		fn()
		return msg
	}

	t.Run("push", func(t *testing.T) {
		var q EventQueue
		q.Label = "testnet"
		q.Push(Event{At: 5, Who: 1})
		q.Push(Event{At: 9, Who: 2})
		if e := q.Pop(); e.At != 5 {
			t.Fatalf("popped %+v, want t=5", e)
		}
		// Pushing at exactly the floor is legal (same-instant scheduling).
		q.Push(Event{At: 5, Who: 3})
		msg := expectPanic(t, func() { q.Push(Event{At: 4.5, Who: 7}) })
		for _, want := range []string{"testnet", "time travel", "entity 7", "t=4.5", "t=5"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	})

	t.Run("unlabelled", func(t *testing.T) {
		var q EventQueue
		msg := expectPanic(t, func() { q.Push(Event{At: -2, Who: 4}) })
		for _, want := range []string{"unnamed queue", "entity 4", "t=-2"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	})

	t.Run("reset-clears-floor", func(t *testing.T) {
		var q EventQueue
		q.Push(Event{At: 10})
		q.Pop()
		q.Reset()
		q.Push(Event{At: 1}) // legal again: a new simulation window
	})
}

// TestWatchdogEventBudget pins the max-event limit: Tick panics with a
// *DeadlineError carrying the router label and the event accounting.
func TestWatchdogEventBudget(t *testing.T) {
	w := Watchdog{Label: "loopnet", MaxEvents: 10}
	defer func() {
		r := recover()
		de, ok := r.(*DeadlineError)
		if !ok {
			t.Fatalf("watchdog panicked with %T (%v), want *DeadlineError", r, r)
		}
		if de.Router != "loopnet" || de.Events != 11 || de.Pending != 3 {
			t.Fatalf("deadline error %+v, want router loopnet, 11 events, 3 pending", de)
		}
		var asDeadline *DeadlineError
		if err := error(de); !errors.As(err, &asDeadline) {
			t.Fatal("DeadlineError does not unwrap via errors.As")
		}
		if !strings.Contains(de.Error(), "loopnet") || !strings.Contains(de.Error(), "event budget") {
			t.Fatalf("error text %q lacks router or reason", de.Error())
		}
	}()
	for i := 0; ; i++ {
		w.Tick(Time(i), 3)
	}
}

// TestWatchdogHorizon pins the no-progress limit: once sim-time advances
// more than Horizon past the last Progress call, Tick aborts; interleaved
// Progress calls keep the loop alive indefinitely.
func TestWatchdogHorizon(t *testing.T) {
	w := Watchdog{Label: "drainnet", Horizon: 100}
	// With regular progress the watchdog stays quiet far past the horizon.
	for i := 0; i < 1000; i++ {
		w.Tick(Time(i*10), 1)
		w.Progress(Time(i * 10))
	}
	defer func() {
		de, ok := recover().(*DeadlineError)
		if !ok {
			t.Fatal("stalled loop did not raise *DeadlineError")
		}
		if de.Reason != "no progress within horizon" || de.Router != "drainnet" {
			t.Fatalf("deadline error %+v", de)
		}
	}()
	at := Time(10000)
	for {
		at += 50
		w.Tick(at, 1)
	}
}

// TestWatchdogReset pins that Reset opens a fresh window: event counts and
// the progress anchor both start over.
func TestWatchdogReset(t *testing.T) {
	w := Watchdog{MaxEvents: 5, Horizon: 10}
	for i := 0; i < 5; i++ {
		w.Tick(Time(i), 0)
		w.Progress(Time(i))
	}
	w.Reset()
	for i := 0; i < 5; i++ {
		w.Tick(Time(i), 0)
		w.Progress(Time(i))
	}
	// Fail surfaces engine-specific conditions with the same structure.
	defer func() {
		de, ok := recover().(*DeadlineError)
		if !ok {
			t.Fatal("Fail did not raise *DeadlineError")
		}
		if de.Reason != "wedged" || de.Events != 5 {
			t.Fatalf("deadline error %+v", de)
		}
	}()
	w.Fail(99, 2, "wedged")
}
