// The active engine is the active-message network core used by the CM-5
// simulator. Unlike the drop-and-retransmit semantics of the Phased
// engine's GCel configuration, the CM-5 data network applies backpressure:
// a sender that would exceed the per-destination in-flight window stalls,
// and while stalled it services its own incoming messages (the CMAML
// polling discipline of Split-C).
//
// This finite-capacity mechanism - the one the paper credits to LogP in its
// conclusions - is exactly what makes communication *schedules* matter:
// when all processors of a group converge on one destination first
// (the unstaggered matrix multiplication of Section 5.1), senders run at
// the receiver's service rate and the BSP prediction comes out roughly 20%
// optimistic, while a staggered schedule matches the prediction closely.

package netsim

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// ActiveConfig holds the physical constants of an active-message layer, in
// microseconds and bytes.
type ActiveConfig struct {
	Procs int
	// Overheads price the CPU side of every message. On the CM-5 the
	// receive handler is cheaper than the send path, which bounds the
	// damage receiver convergence can do.
	Overheads
	// Window is the per-destination in-flight message cap (the network
	// capacity of LogP); a sender stalls rather than exceed it.
	Window int
	// Latency is a function returning the network transit time of a
	// message (contention-free: the fat tree's bisection is wide enough
	// that, per Section 5.3, pattern shape barely matters in transit).
	Latency func(src, dst, bytes int) sim.Time
	// Jitter is the relative standard deviation of per-message overheads.
	Jitter float64
	// BarrierCost is the dedicated control-network barrier time.
	BarrierCost float64
}

// Active is an instantiated active-message engine.
//
// An Active engine carries reusable per-Route scratch (event queue,
// processor states, window counters, finish times), so Route is not safe
// for concurrent use on one instance; the parallel sweep engine gives every
// worker its own router for exactly this reason. The scratch makes
// steady-state routing allocation-free: after the first step has grown the
// backing arrays to the working set, Route performs no heap allocation at
// all.
type Active struct {
	cfg ActiveConfig

	// Per-Route scratch, reset at the top of every Route call.
	procs    []amProcState
	inflight []int      // messages bound for each destination, injected but unserviced
	waiters  [][]int    // processors stalled on each destination's window
	finish   []sim.Time // result buffer; see comm.Result.Finish ownership note
	q        sim.EventQueue

	wd sim.Watchdog // livelock guard over the event loop
}

// Watchdog exposes the engine's livelock guard; the core labels and
// configures it.
func (n *Active) Watchdog() *sim.Watchdog { return &n.wd }

// NewActive builds an active-message engine, validating the configuration.
func NewActive(cfg ActiveConfig) (*Active, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("netsim: invalid processor count %d", cfg.Procs)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("netsim: window must be positive, got %d", cfg.Window)
	}
	if cfg.Latency == nil {
		return nil, fmt.Errorf("netsim: nil latency function")
	}
	return &Active{
		cfg:      cfg,
		procs:    make([]amProcState, cfg.Procs),
		inflight: make([]int, cfg.Procs),
		waiters:  make([][]int, cfg.Procs),
		finish:   make([]sim.Time, cfg.Procs),
	}, nil
}

// Procs implements Engine.
func (n *Active) Procs() int { return n.cfg.Procs }

// event kinds of the coupled simulation.
const (
	evProcReady = iota // a processor's CPU became free
	evArrival          // a message reached its destination's queue
)

type amProcState struct {
	sends   []comm.Msg
	sendIdx int
	// pending holds the arrived, unserviced messages from index head on.
	// Arrivals are appended when the event queue pops them, so the list is
	// in time order with ties first-in first-out: its front is always the
	// earliest arrival.
	pending   []sim.Event
	head      int
	expected  int // total messages this processor must receive
	received  int
	done      bool
	doneAt    sim.Time
	sleeping  bool // waiting for an arrival or a window slot
	waitingOn int  // destination whose window this proc waits for, or -1
}

// Route prices one communication step under the coupled sender-stall model.
func (n *Active) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	p := n.cfg.Procs
	if len(step.Sends) != p {
		panic(fmt.Sprintf("netsim: step for %d processors on a %d-proc machine", len(step.Sends), p))
	}
	stats := comm.Stats{}

	procs, inflight, waiters := n.procs, n.inflight, n.waiters
	q := &n.q
	q.Reset()
	q.Label = n.wd.Label
	for i := range procs {
		procs[i] = amProcState{sends: step.Sends[i], waitingOn: -1, pending: procs[i].pending[:0]}
		inflight[i] = 0
		waiters[i] = waiters[i][:0]
	}
	for src := range step.Sends {
		for _, m := range step.Sends[src] {
			if m.Dst != src {
				procs[m.Dst].expected++
			}
			stats.Msgs++
			stats.Bytes += m.Bytes
		}
	}

	for i := 0; i < p; i++ {
		at := sim.Time(0)
		if step.Offsets != nil {
			at = step.Offsets[i]
		}
		q.Push(sim.Event{At: at, Kind: evProcReady, Who: int32(i)})
	}

	n.wd.Reset()
	events := 0
	for q.Len() > 0 {
		e := q.Pop()
		events++
		n.wd.Tick(e.At, q.Len())
		ps := &procs[e.Who]
		switch e.Kind {
		case evArrival:
			// The byte count travels in the event's Aux slot.
			if k := len(ps.pending); k > 0 && ps.pending[k-1].At > e.At {
				panic(fmt.Sprintf("netsim: %s: processor %d: arrival at t=%gus queued behind one at t=%gus",
					n.wd.Label, e.Who, e.At, ps.pending[k-1].At))
			}
			if len(ps.pending) == cap(ps.pending) && ps.head > 0 {
				// Full but partly serviced: reuse the serviced prefix
				// rather than grow with every message of a busy receiver.
				ps.pending = ps.pending[:copy(ps.pending, ps.pending[ps.head:])]
				ps.head = 0
			}
			ps.pending = append(ps.pending, e)
			if ps.sleeping {
				ps.sleeping = false
				ps.waitingOn = -1
				q.Push(sim.Event{At: e.At, Kind: evProcReady, Who: e.Who})
			}
		case evProcReady:
			if ps.done {
				break
			}
			n.act(int(e.Who), e.At, ps, procs, inflight, waiters, q, rng, &stats)
		}
	}

	finish := n.finish
	elapsed := sim.Time(0)
	for i := range procs {
		if !procs[i].done {
			n.wd.Fail(0, 0, fmt.Sprintf("processor %d never completed (deadlock in step?)", i))
		}
		finish[i] = procs[i].doneAt
		if finish[i] > elapsed {
			elapsed = finish[i]
		}
	}
	if step.Barrier {
		elapsed += n.cfg.BarrierCost
		for i := range finish {
			finish[i] = elapsed
		}
	}
	// Events counts the discrete occurrences this Route processed: one per
	// event-queue pop of the coupled simulation.
	return comm.Result{Elapsed: elapsed, Finish: finish, Stats: stats, Events: events}
}

// act advances processor who at time t by one action: inject the next send,
// service a pending arrival, or finish/sleep.
func (n *Active) act(who int, t sim.Time, ps *amProcState, procs []amProcState,
	inflight []int, waiters [][]int, q *sim.EventQueue, rng *sim.RNG,
	stats *comm.Stats) {

	// Prefer to make send progress; service arrivals while stalled.
	for ps.sendIdx < len(ps.sends) {
		m := ps.sends[ps.sendIdx]
		if m.Dst == who {
			// Local transfer: a memcpy on the sender, no network, no
			// receive handler.
			ps.sendIdx++
			busy := jittered(n.cfg.Jitter, float64(m.Bytes)*n.cfg.CSendByte, rng)
			q.Push(sim.Event{At: t + busy, Kind: evProcReady, Who: int32(who)})
			return
		}
		if inflight[m.Dst] < n.cfg.Window {
			ps.sendIdx++
			n.wd.Progress(t)
			busy := jittered(n.cfg.Jitter, n.cfg.SendCost(m.Bytes), rng)
			inflight[m.Dst]++
			arriveAt := t + busy + n.cfg.Latency(who, m.Dst, m.Bytes)
			q.Push(sim.Event{At: arriveAt, Kind: evArrival, Who: int32(m.Dst), Aux: m.Bytes})
			q.Push(sim.Event{At: t + busy, Kind: evProcReady, Who: int32(who)})
			return
		}
		// Window full: stall. Service an available arrival if any.
		stats.Stalls++
		if ps.head < len(ps.pending) {
			n.service(who, t, ps, procs, inflight, waiters, q, rng)
			return
		}
		// Nothing to do: wait for either an arrival or a window slot.
		ps.sleeping = true
		ps.waitingOn = m.Dst
		waiters[m.Dst] = append(waiters[m.Dst], who)
		return
	}

	// All sends injected: drain the remaining expected messages.
	if ps.received < ps.expected {
		if ps.head < len(ps.pending) {
			n.service(who, t, ps, procs, inflight, waiters, q, rng)
			return
		}
		ps.sleeping = true
		return
	}
	ps.done = true
	ps.doneAt = t
}

// service consumes the earliest pending arrival of processor who at time t,
// freeing a window slot and waking the senders stalled on it.
func (n *Active) service(who int, t sim.Time, ps *amProcState, procs []amProcState,
	inflight []int, waiters [][]int, q *sim.EventQueue, rng *sim.RNG) {

	a := ps.pending[ps.head]
	if ps.head++; ps.head == len(ps.pending) {
		ps.pending, ps.head = ps.pending[:0], 0
	}
	n.wd.Progress(t)
	busy := jittered(n.cfg.Jitter, n.cfg.RecvCost(a.Aux), rng)
	ps.received++
	inflight[who]--
	// Wake the senders stalled on this destination's window; they recheck
	// the window on their next turn (one claims the freed slot, the rest
	// stall again). Entries may be stale - a waiter can have been woken by
	// an arrival in the meantime - so filter by current state.
	if ws := waiters[who]; len(ws) > 0 {
		waiters[who] = ws[:0]
		for _, w := range ws {
			if procs[w].sleeping && procs[w].waitingOn == who {
				procs[w].sleeping = false
				procs[w].waitingOn = -1
				q.Push(sim.Event{At: t, Kind: evProcReady, Who: int32(w)})
			}
		}
	}
	q.Push(sim.Event{At: t + busy, Kind: evProcReady, Who: int32(who)})
}
