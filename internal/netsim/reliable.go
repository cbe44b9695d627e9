// The reliable-delivery protocol layer. When a fault plan is active the
// core stops trusting the network: every logical message gets a sequence
// number, and the step is priced as a series of protocol rounds. In each
// round the unacknowledged messages are retransmitted as data frames
// (every frame traverses the network and burns transit cost whether or
// not the injector then discards it — loss is decided at the receiver),
// the delivered frames are acknowledged with small ack frames flowing
// back, and senders whose acks were lost wait out an exponentially
// backed-off timeout before the next round. Duplicate frames are priced
// but suppressed by the receiver; a message that exhausts the retry
// budget raises a structured *faults.DeliveryError.
//
// Fault decisions are pure functions of (plan seed, step index, sequence
// number, attempt) via rng.Split, so the priced outcome is independent of
// worker count and identical on every run; the engine sub-steps are
// themselves deterministic given the engine RNG stream, which advances in
// a fixed call order.
//
// Under the protocol every step acquires barrier semantics: the final ack
// round resynchronizes the processors, so Finish is uniform. The drift
// studies that rely on skew accumulation are therefore meaningful only
// without a fault plan.

package netsim

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/faults"
	"quantpar/internal/sim"
)

// relMsg is one logical message tracked by the protocol; its index in the
// collection order (source-major, send order — the same order every part
// of this module uses) is its sequence number.
type relMsg struct {
	src, dst, bytes int
	acked           bool
}

// SetFaultPlan activates (or with nil deactivates) fault injection on
// this backend. The plan's watchdog limits are applied to the engine;
// clearing the plan restores the defaults.
func (c *Core) SetFaultPlan(p *faults.Plan) {
	c.plan = p
	wd := c.eng.Watchdog()
	if p != nil {
		wd.MaxEvents = p.Spec().Watchdog.MaxEvents
		wd.Horizon = p.Spec().Watchdog.Horizon
	} else {
		wd.MaxEvents = 0
		wd.Horizon = 0
	}
}

// FaultPlan returns the active fault plan, nil when faults are off.
// Topology policies read it on every transit to switch between the fast
// single-path mode and route-around.
func (c *Core) FaultPlan() *faults.Plan { return c.plan }

// FaultsActive reports whether a fault plan is active; the phase memo
// cache checks it to bypass memoization (faulty pricing depends on the
// fault clock, which a digest cannot capture).
func (c *Core) FaultsActive() bool { return c.plan != nil }

// ResetFaultClock rewinds the active plan to the start of a run.
func (c *Core) ResetFaultClock() {
	if c.plan != nil {
		c.plan.ResetClock()
	}
}

// engineRoute prices one protocol sub-step on the engine. It exists as a
// named concrete hop so the protocol loop has a single audited call site
// into the engine's RNG-consuming Route.
func (c *Core) engineRoute(step *comm.Step, rng *sim.RNG) comm.Result {
	return c.eng.Route(step, rng)
}

// routeReliable prices one logical communication step under the active
// fault plan. See the file comment for the protocol.
func (c *Core) routeReliable(step *comm.Step, rng *sim.RNG) comm.Result {
	p := c.eng.Procs()
	if len(step.Sends) != p {
		panic(fmt.Sprintf("netsim: step for %d processors on a %d-proc machine", len(step.Sends), p))
	}
	plan := c.plan
	proto := plan.Spec().Protocol
	stepIdx := plan.BeginStep()

	if c.finish == nil {
		c.finish = make([]sim.Time, p)
		c.offsets = make([]sim.Time, p)
		c.subSends = make([][]comm.Msg, p)
		c.ackSends = make([][]comm.Msg, p)
	}

	// Sequence the logical messages in the canonical source-major order.
	msgs := c.relMsgs[:0]
	for src, list := range step.Sends {
		for _, m := range list {
			msgs = append(msgs, relMsg{src: src, dst: m.Dst, bytes: m.Bytes})
		}
	}
	c.relMsgs = msgs

	// First-round offsets: the step's own clock skews plus any active
	// stall windows (a stalled processor enters the step late).
	offsets := c.offsets
	haveOffsets := false
	for i := 0; i < p; i++ {
		offsets[i] = 0
		if step.Offsets != nil {
			offsets[i] = step.Offsets[i]
		}
		if d := plan.StallDelay(i); d > 0 {
			offsets[i] += d
		}
		if offsets[i] > 0 {
			haveOffsets = true
		}
	}

	var (
		elapsed sim.Time
		stats   comm.Stats
		events  int
	)
	pending := len(msgs)
	maxAttempts := 1 + proto.MaxRetriesEffective()

	for attempt := 0; pending > 0; attempt++ {
		if attempt >= maxAttempts {
			for i := range msgs {
				if !msgs[i].acked {
					panic(&faults.DeliveryError{
						Router: c.spec.name, Src: msgs[i].src, Dst: msgs[i].dst,
						Seq: uint64(i), Attempts: attempt,
					})
				}
			}
		}
		dataSends, ackSends := c.subSends, c.ackSends
		for i := range dataSends {
			dataSends[i] = dataSends[i][:0]
			ackSends[i] = ackSends[i][:0]
		}
		dataFrames, ackFrames := 0, 0
		for i := range msgs {
			m := &msgs[i]
			if m.acked {
				continue
			}
			if plan.Crashed(m.src) {
				// A dead sender injects nothing; the message can never
				// complete and will exhaust the retry budget.
				stats.Dropped++
				continue
			}
			fate := plan.FrameFate(stepIdx, uint64(i), attempt)
			dataSends[m.src] = append(dataSends[m.src], comm.Msg{Src: m.src, Dst: m.dst, Bytes: m.bytes})
			dataFrames++
			if attempt > 0 {
				stats.Retries++
			}
			if fate == faults.Duplicate {
				dataSends[m.src] = append(dataSends[m.src], comm.Msg{Src: m.src, Dst: m.dst, Bytes: m.bytes})
				dataFrames++
				stats.Duplicated++
			}
			delivered := false
			switch {
			case plan.Crashed(m.dst):
				stats.Dropped++
			case fate == faults.Drop:
				stats.Dropped++
			case fate == faults.Corrupt:
				stats.Corrupted++
			case fate == faults.Delay:
				stats.Delayed++
			default: // Deliver, or Duplicate (one copy survives)
				delivered = true
			}
			if !delivered {
				continue
			}
			// The receiver acknowledges; the ack frame is priced whether
			// or not it survives the return path.
			ackSends[m.dst] = append(ackSends[m.dst], comm.Msg{Src: m.dst, Dst: m.src, Bytes: proto.AckBytesEffective()})
			ackFrames++
			stats.Acks++
			if !plan.AckLost(stepIdx, uint64(i), attempt) {
				m.acked = true
				pending--
			}
		}

		var roundData sim.Time
		if dataFrames > 0 {
			sub := &c.subStep
			*sub = comm.Step{Sends: dataSends, Barrier: true}
			if attempt == 0 && haveOffsets {
				sub.Offsets = offsets
			}
			res := c.engineRoute(sub, rng)
			roundData = res.Elapsed
			elapsed += res.Elapsed
			stats.Add(res.Stats)
			events += res.Events
		}
		if ackFrames > 0 {
			sub := &c.ackStep
			*sub = comm.Step{Sends: ackSends, Barrier: true}
			res := c.engineRoute(sub, rng)
			elapsed += res.Elapsed
			stats.Add(res.Stats)
			events += res.Events
		}
		if pending > 0 {
			// Unacked senders wait out the retransmission timeout before
			// the next round, with exponential backoff.
			t := proto.Timeout
			if t == 0 {
				t = 2 * roundData
			}
			scale := sim.Time(1)
			for b := 0; b < attempt; b++ {
				scale *= sim.Time(proto.BackoffEffective())
			}
			elapsed += t * scale
		}
	}

	if len(msgs) == 0 {
		// A pure-barrier (or empty) step: price it directly, with stall
		// offsets applied, and keep the engine's own result shape.
		sub := &c.subStep
		*sub = comm.Step{Sends: c.resetEmpty(), Barrier: step.Barrier}
		if haveOffsets {
			sub.Offsets = offsets
		}
		res := c.engineRoute(sub, rng)
		elapsed += res.Elapsed
		stats.Add(res.Stats)
		events += res.Events
	}

	finish := c.finish
	for i := range finish {
		finish[i] = elapsed
	}
	plan.Advance(elapsed)
	return comm.Result{Elapsed: elapsed, Finish: finish, Stats: stats, Events: events}
}

// resetEmpty clears and returns the data-sends scratch for an empty step.
func (c *Core) resetEmpty() [][]comm.Msg {
	for i := range c.subSends {
		c.subSends[i] = c.subSends[i][:0]
	}
	return c.subSends
}
