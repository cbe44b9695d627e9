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

	// A logical message's index in the canonical source-major order (send
	// order within a source, the order every part of this module uses) is
	// its sequence number; acked records which ones have completed.
	acked := append(c.acked[:0], make([]bool, step.NumMsgs())...)
	c.acked = acked

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
	pending := len(acked)
	maxAttempts := 1 + proto.MaxRetriesEffective()

	for attempt := 0; pending > 0; attempt++ {
		if attempt >= maxAttempts {
			seq := 0
			for src, list := range step.Sends {
				for _, m := range list {
					if !acked[seq] {
						panic(&faults.DeliveryError{
							Router: c.spec.name, Src: src, Dst: m.Dst,
							Seq: uint64(seq), Attempts: attempt,
						})
					}
					seq++
				}
			}
		}
		dataSends, ackSends := c.subSends, c.ackSends
		for i := range dataSends {
			dataSends[i] = dataSends[i][:0]
			ackSends[i] = ackSends[i][:0]
		}
		dataFrames, ackFrames := 0, 0
		seq := -1
		for src, list := range step.Sends {
			for _, m := range list {
				seq++
				if acked[seq] {
					continue
				}
				if plan.Crashed(src) {
					// A dead sender injects nothing; the message can never
					// complete and will exhaust the retry budget.
					stats.Dropped++
					continue
				}
				fate := plan.FrameFate(stepIdx, uint64(seq), attempt)
				frame := comm.Msg{Src: src, Dst: m.Dst, Bytes: m.Bytes}
				dataSends[src] = append(dataSends[src], frame)
				dataFrames++
				if attempt > 0 {
					stats.Retries++
				}
				if fate == faults.Duplicate {
					dataSends[src] = append(dataSends[src], frame)
					dataFrames++
					stats.Duplicated++
				}
				delivered := false
				switch {
				case plan.Crashed(m.Dst):
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
				ackSends[m.Dst] = append(ackSends[m.Dst], comm.Msg{Src: m.Dst, Dst: src, Bytes: proto.AckBytesEffective()})
				ackFrames++
				stats.Acks++
				if !plan.AckLost(stepIdx, uint64(seq), attempt) {
					acked[seq] = true
					pending--
				}
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

	if len(acked) == 0 {
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
