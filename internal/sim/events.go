package sim

import "fmt"

// Event is a scheduled occurrence in an event-driven simulation. The
// payload is interpreted by the simulation that scheduled it. Payloads are
// plain integers by design: Aux carries whatever fits an int (a byte count,
// a message index), so scheduling an event never boxes and never allocates.
type Event struct {
	At   Time
	Kind int
	Who  int // entity index (processor, link, ...)
	Aux  int // integer payload slot

	seq int // tie-breaker: FIFO among equal-time events
}

// EventQueue is a min-heap of events ordered by time, with FIFO ordering
// among events scheduled for the same instant so that simulations remain
// deterministic. The zero value is an empty, ready-to-use queue.
//
// The heap is 4-ary and inlined rather than container/heap-based: Push and
// Pop sit on the innermost loop of every router, and the concrete
// implementation avoids the interface dispatch and Event-to-any boxing of
// the generic heap (zero allocations per operation once the backing array
// has grown to the simulation's working set). The shallower 4-ary shape
// also halves the sift-down depth for the queue sizes the routers produce.
type EventQueue struct {
	h   []Event
	seq int

	// Label names the simulation (typically the owning router) in the
	// time-travel panic; an empty label reports as "unnamed queue".
	Label string

	// floor is the timestamp of the most recently popped event; pushing an
	// event scheduled before it would silently corrupt the simulation's
	// causal order, so Push rejects it. hasFloor distinguishes "nothing
	// popped yet" from a floor at t=0.
	floor    Time
	hasFloor bool
}

// eventBefore is the heap order: earlier time first, FIFO among exact ties.
func eventBefore(a, b Event) bool {
	// Only exactly equal timestamps fall through to the FIFO tie-break;
	// nearly-equal times must keep their time ordering.
	if a.At != b.At { //qpvet:ignore simtime -- exact comparison is the tie-break criterion
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Push schedules an event. Scheduling into the past — an event earlier
// than the last popped timestamp — panics: the simulation already advanced
// beyond that instant, and accepting the event would silently corrupt
// event ordering.
func (q *EventQueue) Push(e Event) {
	if q.hasFloor && e.At < q.floor {
		q.timeTravel(e)
	}
	e.seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
}

// timeTravel reports a push into the past. Out of line so Push stays small
// enough to inline.
func (q *EventQueue) timeTravel(e Event) {
	label := q.Label
	if label == "" {
		label = "unnamed queue"
	}
	panic(fmt.Sprintf("sim: %s: time travel: event for entity %d scheduled at t=%gus after popping t=%gus",
		label, e.Who, float64(e.At), float64(q.floor)))
}

// PushBatch schedules a batch of events in one operation. FIFO tie-break
// order among equal-time events follows the slice order, exactly as if each
// event had been Pushed in turn.
//
// When the batch is at least as large as the pending queue — the common
// shape at the top of a Route call, where a router injects P simultaneous
// processor-ready events into an empty queue — the batch is appended
// wholesale and the heap is rebuilt bottom-up (Floyd), which is O(n) total
// instead of the O(n·log₄ n) of per-event sift-ups. Smaller batches fall
// back to individual sift-ups, which are cheaper than a full rebuild.
func (q *EventQueue) PushBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	rebuild := len(events) >= len(q.h)
	for _, e := range events {
		if q.hasFloor && e.At < q.floor {
			q.timeTravel(e)
		}
		e.seq = q.seq
		q.seq++
		q.h = append(q.h, e)
		if !rebuild {
			q.siftUp(len(q.h) - 1)
		}
	}
	if rebuild {
		q.heapify()
	}
}

// Reserve grows the backing array so that at least n further events can be
// pushed without reallocation. It never shrinks.
func (q *EventQueue) Reserve(n int) {
	if need := len(q.h) + n; need > cap(q.h) {
		h := make([]Event, len(q.h), need)
		copy(h, q.h)
		q.h = h
	}
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// callers must check Len first.
func (q *EventQueue) Pop() Event {
	top := q.h[0]
	q.floor = top.At
	q.hasFloor = true
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		q.siftDown(0)
	}
	return top
}

// Peek returns the earliest event without removing it. The second result
// is false if the queue is empty.
func (q *EventQueue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Reset discards all pending events. The backing array is retained for
// reuse across trials; events carry no pointers, so retaining it pins no
// payload memory.
func (q *EventQueue) Reset() {
	q.h = q.h[:0]
	q.seq = 0
	q.hasFloor = false
	q.floor = 0
}

// heapify restores the heap invariant over the whole backing array
// bottom-up: sift down every internal node from the last parent to the
// root. Linear total work on a 4-ary heap.
func (q *EventQueue) heapify() {
	n := len(q.h)
	for i := (n - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
}

func (q *EventQueue) siftUp(i int) {
	e := q.h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(e, q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = e
}

func (q *EventQueue) siftDown(i int) {
	n := len(q.h)
	e := q.h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(q.h[c], q.h[best]) {
				best = c
			}
		}
		if !eventBefore(q.h[best], e) {
			break
		}
		q.h[i] = q.h[best]
		i = best
	}
	q.h[i] = e
}
