package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Event is a scheduled occurrence in an event-driven simulation. The
// payload is interpreted by the simulation that scheduled it. Payloads are
// plain integers by design: Aux carries whatever fits an int (a byte count,
// a message index), so scheduling an event never boxes and never allocates.
type Event struct {
	At   Time
	Who  int32 // entity index (processor, link, ...)
	Kind int32
	Aux  int // integer payload slot
}

// EventQueue is a monotone priority queue of events ordered by time, with
// FIFO order among events scheduled for the same instant so that
// simulations stay deterministic. The zero value is an empty, ready-to-use
// queue.
//
// Times must be non-negative and not NaN, and no event may be scheduled
// before the most recently popped one; Push panics otherwise. Within that
// contract the queue is a radix heap keyed on the bits of the event time,
// which order non-negative floats as integers. Bucket b holds the events
// whose key first differs from the last popped key at bit b-1 (bucket 0:
// equal keys). Pop drains bucket 0 front to back; when it is empty, the
// lowest non-empty bucket is redistributed, in its stored order, around
// its minimum key into the buckets below it, all of which are empty. Equal
// keys therefore always share a bucket, every bucket stays in push order,
// and ties pop first-in first-out with no sequence counter.
type EventQueue struct {
	// Label names the simulation (typically the owning router) in the
	// panics Push raises; an empty label reports as "unnamed queue".
	Label string

	// Keys have the sign bit clear, so key^last < 2^63 and 64 buckets
	// suffice. The table is allocated on the first Push: most queues of a
	// freshly built machine never see an event.
	b    *[64][]Event
	head int    // read position in b[0]
	mask uint64 // bit i set when b[i] may be non-empty
	last uint64 // key of the most recently popped event; 0 before any pop
	n    int
}

// key maps a non-negative time to an order-preserving integer, folding -0
// into +0.
func key(t Time) uint64 { return math.Float64bits(t) &^ (1 << 63) }

// Push schedules an event. It panics if the time is negative or NaN, or
// earlier than the last popped event: the simulation already advanced
// beyond that instant, and accepting the event would silently corrupt
// event ordering.
func (q *EventQueue) Push(e Event) {
	k := key(e.At)
	if !(e.At >= 0) || k < q.last {
		q.reject(e)
	}
	if q.b == nil {
		q.b = new([64][]Event)
	}
	i := bits.Len64(k ^ q.last)
	q.b[i] = append(q.b[i], e)
	q.mask |= 1 << i
	q.n++
}

// reject reports an invalid push. Out of line so Push stays small.
func (q *EventQueue) reject(e Event) {
	label := q.Label
	if label == "" {
		label = "unnamed queue"
	}
	if !(e.At >= 0) {
		panic(fmt.Sprintf("sim: %s: event for entity %d scheduled at invalid time t=%gus",
			label, e.Who, float64(e.At)))
	}
	panic(fmt.Sprintf("sim: %s: time travel: event for entity %d scheduled at t=%gus after popping t=%gus",
		label, e.Who, float64(e.At), math.Float64frombits(q.last)))
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// callers must check Len first.
func (q *EventQueue) Pop() Event {
	if q.head == len(q.b[0]) {
		q.refill()
	}
	e := q.b[0][q.head]
	q.head++
	q.n--
	return e
}

// refill moves the events of the lowest non-empty bucket into bucket 0 and
// the buckets below their own, advancing last to their minimum key.
func (q *EventQueue) refill() {
	b := q.b
	b[0] = b[0][:0]
	q.head = 0
	q.mask &^= 1
	i := bits.TrailingZeros64(q.mask)
	src := b[i]
	lo := key(src[0].At)
	for _, e := range src[1:] {
		if k := key(e.At); k < lo {
			lo = k
		}
	}
	q.last = lo
	for _, e := range src {
		j := bits.Len64(key(e.At) ^ lo)
		b[j] = append(b[j], e)
		q.mask |= 1 << j
	}
	b[i] = src[:0]
	q.mask &^= 1 << i
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return q.n }

// Reset discards all pending events and the time-travel floor. The bucket
// arrays are retained for reuse across trials; events carry no pointers,
// so retaining them pins no payload memory.
func (q *EventQueue) Reset() {
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		q.b[i] = q.b[i][:0]
	}
	q.head, q.mask, q.last, q.n = 0, 0, 0, 0
}
