package sim

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzEventQueue drives the event queue with an arbitrary interleaving of
// pushes, pops and resets decoded from the fuzz input, and checks every
// pop against a model: the earliest pending event, and among equal times
// (-0 and +0 included) the first pushed. So:
//
//  1. pop order is non-decreasing in time, and +Inf pops last;
//  2. events with equal timestamps pop in FIFO (push) order, so equal-time
//     ties never depend on queue internals;
//  3. a push at a negative or NaN time panics with the queue's label and
//     leaves the queue as it was;
//  4. Reset leaves an empty queue, whatever its buckets still held.
//
// The input is consumed as records of one op byte. An odd op pops, or
// resets when op%8 == 7. An even op pushes: with bit 1 clear, at the
// little-endian float64 in the next 8 bytes; with bit 1 set, at a small
// time in [0, 3) that collides often (the interesting regime for the FIFO
// invariant), negated when bit 2 is also set, which makes 0 a -0. Valid
// times below the last pop are raised to it, as simulations never
// schedule into the past.
func FuzzEventQueue(f *testing.F) {
	mk := func(ops ...byte) []byte { return ops }
	// Seed corpus: pure pushes then drains, equal-time bursts, interleaved
	// push/pop, and an empty input.
	push := func(t float64) []byte {
		b := []byte{0}
		var ts [8]byte
		binary.LittleEndian.PutUint64(ts[:], math.Float64bits(t))
		return append(b, ts[:]...)
	}
	var burst []byte
	for i := 0; i < 6; i++ {
		burst = append(burst, push(1.5)...)
	}
	f.Add(mk())
	f.Add(burst)
	f.Add(append(append(push(3), push(1)...), 1, 1, 1))
	f.Add(append(push(math.Inf(1)), push(0)...))
	f.Add(mk(6, 2, 6, 1, 6, 2, 7, 2, 1))
	f.Add(append(append(push(math.NaN()), push(-1)...), push(math.Copysign(0, -1))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		const label = "fuzzq"
		q := EventQueue{Label: label}
		type pushed struct {
			at  Time
			seq int32
		}
		var (
			live    []pushed // pushed and not yet popped, in push order
			nextSeq int32
			lastAt  = math.Inf(-1)
		)
		// pop checks one popped event against the model and removes it.
		pop := func(e Event) {
			best := -1
			for i, p := range live {
				if best == -1 || p.at < live[best].at {
					best = i
				}
			}
			if best == -1 {
				t.Fatal("popped from queue the model thinks is empty")
			}
			if math.Float64bits(e.At) != math.Float64bits(live[best].at) || e.Kind != live[best].seq {
				t.Fatalf("popped (t=%g seq=%d), model expects (t=%g seq=%d)",
					e.At, e.Kind, live[best].at, live[best].seq)
			}
			live = append(live[:best], live[best+1:]...)
			lastAt = e.At
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%2 == 1 {
				if op%8 == 7 {
					q.Reset()
					if q.Len() != 0 {
						t.Fatalf("queue holds %d events after Reset", q.Len())
					}
					live, lastAt = live[:0], math.Inf(-1)
				} else if q.Len() > 0 {
					pop(q.Pop())
				}
				continue
			}
			var at Time
			if op&2 == 0 {
				if len(data) < 8 {
					break
				}
				at = math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
				data = data[8:]
			} else {
				at = Time(nextSeq % 3)
				if op&4 != 0 {
					at = -at
				}
			}
			if math.IsNaN(at) || at < 0 {
				n := q.Len()
				msg := pushPanic(t, &q, Event{At: at, Kind: nextSeq})
				if !strings.Contains(msg, label) {
					t.Fatalf("push at t=%g panicked with %q, which lacks the queue label", at, msg)
				}
				if q.Len() != n {
					t.Fatalf("rejected push changed the queue length from %d to %d", n, q.Len())
				}
				continue
			}
			if at < lastAt {
				at = lastAt
			}
			q.Push(Event{At: at, Kind: nextSeq})
			live = append(live, pushed{at: at, seq: nextSeq})
			nextSeq++
		}
		// Drain what remains, still checking against the model.
		if q.Len() != len(live) {
			t.Fatalf("queue holds %d events, model holds %d", q.Len(), len(live))
		}
		for q.Len() > 0 {
			pop(q.Pop())
		}
		if len(live) != 0 {
			t.Fatalf("queue empty but model still holds %d events", len(live))
		}
	})
}

// pushPanic pushes e, which must make Push panic, and returns the message.
func pushPanic(t *testing.T, q *EventQueue, e Event) (msg string) {
	t.Helper()
	defer func() {
		s, ok := recover().(string)
		if !ok {
			t.Fatalf("push at t=%g did not panic with a message", e.At)
		}
		msg = s
	}()
	q.Push(e)
	return ""
}
