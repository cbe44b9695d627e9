// The phased engine is the event-driven messaging core of the
// overhead-dominated MIMD machines (the GCel mesh wraps it; the CM-5 uses
// the Active engine instead). It models what the paper shows actually
// dominates message-passing cost on those machines: per-message software
// overheads on the sending and receiving CPUs, per-byte copy costs, a
// network transit function supplied by the topology policy, and a finite
// receive buffer whose overflow forces expensive retransmissions.
//
// The processor model matches the benchmarked programs: within one
// communication step a processor first executes its ordered send list
// (each send occupying its CPU), then drains its incoming messages (each
// receive occupying its CPU) in arrival order. Messages that arrive while
// the destination buffer is full are dropped and retransmitted after a
// penalty - the PVM-era mechanism behind the "drifting out of sync"
// blow-up of h-h permutations on the GCel (Fig 7 of the paper).

package netsim

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// Transit computes network transit for one message: given the departure
// time (after the sender's software overhead), it returns the arrival time
// at the destination. Implementations may claim links in the shared link
// table to model contention, and should update stats (hops, link loads).
type Transit func(src, dst, bytes int, depart sim.Time, links *LinkTable, stats *comm.Stats) sim.Time

// PhasedConfig holds the physical constants of an overhead-dominated
// messaging layer, in microseconds (and bytes).
type PhasedConfig struct {
	Procs int
	// Overheads price the CPU side of every message. On the GCel the
	// receive side dominates (HPVM copies and matches on the receiving
	// transputer), which is what makes a multinode scatter 9.1x cheaper
	// than a full h-relation.
	Overheads
	// RecvBuffer is the receive-buffer capacity in messages; 0 disables
	// overflow modelling. RetryPenalty is the extra delay of each dropped-
	// and-retransmitted message, and NackCost is the receiver CPU time
	// burned examining and refusing a message that found the buffer full -
	// the work that makes overflowing steps actually slower, not merely
	// later, and thus the elevation in the paper's Fig 7.
	RecvBuffer   int
	RetryPenalty float64
	NackCost     float64
	// Jitter is the relative standard deviation of per-message overheads;
	// it is the noise source that makes unsynchronized processors drift.
	Jitter float64
	// BarrierCost is the cost of the barrier closing a step, charged after
	// all processors finish.
	BarrierCost float64
}

// LinkTable tracks when each directed link becomes free.
type LinkTable struct {
	busyUntil []sim.Time
}

// NewLinkTable returns a table over n links, all free at time zero.
func NewLinkTable(n int) *LinkTable {
	return &LinkTable{busyUntil: make([]sim.Time, n)}
}

// Claim occupies link id from max(at, free) for dur and returns the time
// the claim ends.
func (lt *LinkTable) Claim(id int, at sim.Time, dur sim.Time) sim.Time {
	start := at
	if lt.busyUntil[id] > start {
		start = lt.busyUntil[id]
	}
	end := start + dur
	lt.busyUntil[id] = end
	return end
}

// Reset marks every link free at time zero.
func (lt *LinkTable) Reset() {
	for i := range lt.busyUntil {
		lt.busyUntil[i] = 0
	}
}

// Phased is an instantiated phased messaging engine.
//
// A Phased engine carries reusable per-Route scratch (injection list,
// merge cursors, arrival queues, finish times), so Route is not safe for
// concurrent use on one instance; the parallel sweep engine gives every
// worker its own router. The scratch makes steady-state routing
// allocation-free once the backing arrays have grown to the step's working
// set.
type Phased struct {
	cfg     PhasedConfig
	transit Transit
	links   *LinkTable

	// Per-Route scratch, reset at the top of every Route call.
	sendDone   []sim.Time
	injections []injection
	cursors    []cursor
	// arrivals queues each destination's messages: Aux holds the bytes,
	// Kind arrFirst or arrRetried.
	arrivals   []sim.EventQueue
	finish     []sim.Time // result buffer; see comm.Result.Finish ownership note
	recvStarts []sim.Time // per-drain service-start times
	stats      comm.Stats // staged here so stats passed to transit funcs does not escape per call
	events     int        // discrete events processed this Route call

	wd sim.Watchdog // livelock guard over the drain retry loops
}

// Watchdog exposes the engine's livelock guard; the core labels and
// configures it.
func (n *Phased) Watchdog() *sim.Watchdog { return &n.wd }

// NewPhased builds a phased messaging engine. numLinks sizes the link
// table handed to the transit function (pass 0 when the transit model is
// contention-free).
func NewPhased(cfg PhasedConfig, numLinks int, transit Transit) (*Phased, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("netsim: invalid processor count %d", cfg.Procs)
	}
	if transit == nil {
		return nil, fmt.Errorf("netsim: nil transit function")
	}
	return &Phased{
		cfg:      cfg,
		transit:  transit,
		links:    NewLinkTable(numLinks),
		sendDone: make([]sim.Time, cfg.Procs),
		arrivals: make([]sim.EventQueue, cfg.Procs),
		finish:   make([]sim.Time, cfg.Procs),
	}, nil
}

// Procs implements Engine.
func (n *Phased) Procs() int { return n.cfg.Procs }

// Arrival event kinds. A message that has already been retried once is
// accepted on its second attempt (the sender has backed off long enough
// that a slot is guaranteed by the retryAt computation), which guards the
// drain loop against livelock.
const (
	arrFirst = iota
	arrRetried
)

// injection is one message entering the network at time at.
type injection struct {
	at    sim.Time
	dst   int
	bytes int
}

// cursor is one source's position in the merge of the per-source
// injection runs: the run's unread entries are injections[next:end], and
// at caches injections[next].at.
type cursor struct {
	at        sim.Time
	src       int
	next, end int
}

// before is the merge order: earlier injection first, lower source first
// among equal times.
func (c *cursor) before(d *cursor) bool {
	return c.at < d.at || c.at <= d.at && c.src < d.src
}

// siftDown restores the 4-ary heap order of h below position i.
func siftDown(h []cursor, i int) {
	c := h[i]
	for {
		best := 4*i + 1
		if best >= len(h) {
			break
		}
		for j := best + 1; j < 4*i+5 && j < len(h); j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&c) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = c
}

// Route prices one communication step. See the type comment for the
// processor model. The returned Finish times are absolute per-processor
// completion times (equal for all processors when the step has a barrier),
// and Elapsed is the latest of them.
func (n *Phased) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	p := n.cfg.Procs
	if len(step.Sends) != p {
		panic(fmt.Sprintf("netsim: step for %d processors on a %d-proc machine", len(step.Sends), p))
	}
	n.links.Reset()
	n.stats = comm.Stats{}
	stats := &n.stats
	n.events = 0
	n.wd.Reset()

	// Phase 1: sender timelines. Each processor starts at its skew offset
	// and performs its sends back to back; each send occupies the CPU for
	// the software overhead plus the outgoing copy. A clock that never
	// goes back makes injections one time-sorted run per source.
	sendDone := n.sendDone
	injections := n.injections[:0]
	cursors := n.cursors[:0]
	for src := 0; src < p; src++ {
		t := sim.Time(0)
		if step.Offsets != nil {
			t = step.Offsets[src]
		}
		start := len(injections)
		for i, m := range step.Sends[src] {
			d := jittered(n.cfg.Jitter, n.cfg.SendCost(m.Bytes), rng)
			if !(d >= 0) {
				panic(fmt.Sprintf("netsim: %s: processor %d send %d costs %gus", n.wd.Label, src, i, d))
			}
			t += d
			injections = append(injections, injection{at: t, dst: m.Dst, bytes: m.Bytes})
			stats.Msgs++
			stats.Bytes += m.Bytes
		}
		sendDone[src] = t
		if len(injections) > start {
			cursors = append(cursors, cursor{at: injections[start].at, src: src, next: start, end: len(injections)})
		}
	}
	n.injections = injections

	// Phase 2: network transit with link contention, processed in global
	// injection order (FCFS link arbitration), ties going to the lower
	// source and then to send order. A 4-ary heap of run cursors merges
	// the sorted runs into that order.
	for i := len(cursors) - 1; i >= 0; i-- {
		siftDown(cursors, i)
	}
	arrivals := n.arrivals
	for i := range arrivals {
		arrivals[i].Reset()
		arrivals[i].Label = n.wd.Label
	}
	n.events += len(injections)
	for len(cursors) > 0 {
		c := &cursors[0]
		inj := injections[c.next]
		at := n.transit(c.src, inj.dst, inj.bytes, inj.at, n.links, stats)
		arrivals[inj.dst].Push(sim.Event{At: at, Who: int32(inj.dst), Kind: arrFirst, Aux: inj.bytes})
		if c.next++; c.next < c.end {
			c.at = injections[c.next].at
		} else {
			cursors[0] = cursors[len(cursors)-1]
			cursors = cursors[:len(cursors)-1]
		}
		if len(cursors) > 0 {
			siftDown(cursors, 0)
		}
	}
	n.cursors = cursors

	// Phase 3: per-destination receive queues with finite buffers.
	finish := n.finish
	for dst := 0; dst < p; dst++ {
		finish[dst] = n.drain(dst, sendDone[dst], &arrivals[dst], rng, stats)
	}

	elapsed := sim.Time(0)
	for _, f := range finish {
		if f > elapsed {
			elapsed = f
		}
	}
	if step.Barrier {
		elapsed += n.cfg.BarrierCost
		for i := range finish {
			finish[i] = elapsed
		}
	}
	// Events counts the discrete occurrences this Route processed: one per
	// network injection plus one per receive-queue pop (retries included).
	return comm.Result{Elapsed: elapsed, Finish: finish, Stats: *stats, Events: n.events}
}

// drain simulates destination dst's receive processing: a single server
// (the CPU, free from cpuFree onward) consuming buffered arrivals FIFO,
// with a buffer of RecvBuffer slots. A message arriving to a full buffer is
// retransmitted: it re-enters the arrival stream at the time the buffer has
// room plus the retry penalty (jittered). Returns the completion time.
func (n *Phased) drain(dst int, cpuFree sim.Time, q *sim.EventQueue, rng *sim.RNG, stats *comm.Stats) sim.Time {
	if q.Len() == 0 {
		return cpuFree
	}
	// Anchor the no-progress horizon at this drain's start: destinations
	// drain at unrelated absolute times, and a stale anchor from the
	// previous destination could trip a tight horizon spuriously.
	n.wd.Progress(cpuFree)
	// recvStarts holds the service-start times of accepted messages; a
	// buffer slot is held from arrival acceptance until service start.
	recvStarts := n.recvStarts[:0]
	served := 0 // accepted messages whose service has started at current time
	end := cpuFree
	for q.Len() > 0 {
		a := q.Pop()
		n.events++
		n.wd.Tick(a.At, q.Len())
		// Free slots for every accepted message whose service started by a.At.
		for served < len(recvStarts) && recvStarts[served] <= a.At {
			served++
		}
		occupancy := len(recvStarts) - served
		if n.cfg.RecvBuffer > 0 && occupancy >= n.cfg.RecvBuffer && a.Kind != arrRetried {
			// Buffer full: the receiver burns CPU refusing the message,
			// and the message is retransmitted once a slot will be free.
			stats.BufferFulls++
			end += jittered(n.cfg.Jitter, n.cfg.NackCost, rng)
			retryAt := recvStarts[served]
			if retryAt < a.At {
				retryAt = a.At
			}
			retryAt += jittered(n.cfg.Jitter, n.cfg.RetryPenalty, rng)
			q.Push(sim.Event{At: retryAt, Who: a.Who, Kind: arrRetried, Aux: a.Aux})
			continue
		}
		start := end
		if a.At > start {
			start = a.At
		}
		recvStarts = append(recvStarts, start)
		end = start + jittered(n.cfg.Jitter, n.cfg.RecvCost(a.Aux), rng)
		n.wd.Progress(start)
	}
	n.recvStarts = recvStarts
	return end
}
