package faults

import (
	"fmt"

	"quantpar/internal/sim"
)

// Fate is the injector's verdict on one frame crossing the network.
type Fate int

const (
	// Deliver: the frame arrives intact and on time.
	Deliver Fate = iota
	// Drop: the frame vanishes in flight (it still traverses the network
	// and burns transit cost before being discarded at the receiver).
	Drop
	// Corrupt: the frame arrives but fails its integrity check; the
	// protocol discards it, so it acts as a detected loss.
	Corrupt
	// Delay: the frame arrives after the ack deadline; the sender times
	// out and retransmits, and the receiver suppresses the duplicate.
	Delay
	// Duplicate: the network manufactures an extra copy; both traverse,
	// the receiver keeps exactly one.
	Duplicate
)

// Decision-stream kinds, mixed into the Split key so the data-frame and
// ack-frame verdicts of one (step, seq, attempt) are independent draws.
const (
	kindFrame = iota
	kindAck
)

// mixKey folds a frame's coordinates into one Split stream index. The
// multipliers are the odd 64-bit constants the sim package already uses
// for seeding; any bijective-ish mixing works, it only has to be a pure
// function of the coordinates.
func mixKey(step, seq uint64, attempt, kind int) uint64 {
	h := step*0x9e3779b97f4a7c15 ^ (seq+1)*0xbf58476d1ce4e5b9
	h ^= uint64(attempt+1) * 0x94d049bb133111eb
	h ^= uint64(kind+1) * 0xd1342543de82ef95
	return h
}

// Plan is a Spec compiled for one machine instance: it carries the
// decision RNG root and the fault clock. A plan is not safe for
// concurrent use; parallel sweeps give every worker its own machine and
// therefore its own plan (mirroring the router-scratch discipline).
type Plan struct {
	spec Spec
	base *sim.RNG // decision root; never advanced, only Split from

	clock sim.Time // simulated time at the start of the current step
	steps uint64   // communication steps begun since the last reset

	msgFaults bool // any nonzero message-fault rate
}

// NewPlan validates and compiles a spec.
func NewPlan(spec Spec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{spec: spec, base: sim.NewRNG(spec.Seed)}
	p.msgFaults = spec.DropRate != 0 || spec.CorruptRate != 0 || spec.DelayRate != 0 || spec.DuplicateRate != 0
	return p, nil
}

// Spec returns the schedule the plan was compiled from.
func (p *Plan) Spec() Spec { return p.spec }

// ResetClock rewinds the fault clock and the step counter to the start of
// a run. Every run-level driver (the superstep engine, each calibration
// trial) must call it so that identical runs see identical fault
// schedules regardless of what was simulated on the machine before.
func (p *Plan) ResetClock() {
	p.clock = 0
	p.steps = 0
}

// BeginStep opens the next communication step and returns its index (the
// first component of every decision key).
func (p *Plan) BeginStep() uint64 {
	idx := p.steps
	p.steps++
	return idx
}

// Advance moves the fault clock past a priced step.
func (p *Plan) Advance(elapsed sim.Time) {
	if elapsed > 0 {
		p.clock += elapsed
	}
}

// FrameFate decides what happens to the data frame of message seq on its
// attempt-th transmission during step. The decision is one uniform draw
// from a Split stream keyed by the coordinates, so it does not depend on
// the order frames are examined in.
func (p *Plan) FrameFate(step, seq uint64, attempt int) Fate {
	if !p.msgFaults {
		return Deliver
	}
	x := p.base.Split(mixKey(step, seq, attempt, kindFrame)).Float64()
	s := p.spec
	switch {
	case x < s.DropRate:
		return Drop
	case x < s.DropRate+s.CorruptRate:
		return Corrupt
	case x < s.DropRate+s.CorruptRate+s.DelayRate:
		return Delay
	case x < s.DropRate+s.CorruptRate+s.DelayRate+s.DuplicateRate:
		return Duplicate
	}
	return Deliver
}

// AckLost decides whether the acknowledgement for message seq on its
// attempt-th transmission is lost. A dropped, corrupted, or late ack are
// all useless to the sender, so the loss probability is the sum of those
// three rates.
func (p *Plan) AckLost(step, seq uint64, attempt int) bool {
	if !p.msgFaults {
		return false
	}
	x := p.base.Split(mixKey(step, seq, attempt, kindAck)).Float64()
	s := p.spec
	return x < s.DropRate+s.CorruptRate+s.DelayRate
}

// LinkDead reports whether the undirected link between nodes u and v is
// dead at the current fault clock. Liveness is sampled at step start: a
// kill or heal occurring mid-step takes effect from the next step.
func (p *Plan) LinkDead(u, v int) bool {
	for _, k := range p.spec.LinkKills {
		if (k.U == u && k.V == v) || (k.U == v && k.V == u) {
			if p.clock >= k.KillAt && (!k.heals() || p.clock < k.HealAt) {
				return true
			}
		}
	}
	return false
}

// HasDeadLinks reports whether any scheduled link kill is active at the
// current fault clock, letting routers keep their fast single-path
// routing when the topology is whole.
func (p *Plan) HasDeadLinks() bool {
	for _, k := range p.spec.LinkKills {
		if p.clock >= k.KillAt && (!k.heals() || p.clock < k.HealAt) {
			return true
		}
	}
	return false
}

// StallDelay returns the extra delay processor proc suffers on a step
// beginning at the current fault clock: the remaining length of any stall
// window containing the clock (the longest, if windows overlap).
func (p *Plan) StallDelay(proc int) sim.Time {
	var d sim.Time
	for _, st := range p.spec.Stalls {
		if st.Proc == proc && p.clock >= st.At && p.clock < st.At+st.Duration {
			if rem := st.At + st.Duration - p.clock; rem > d {
				d = rem
			}
		}
	}
	return d
}

// Crashed reports whether processor proc has permanently failed by the
// current fault clock.
func (p *Plan) Crashed(proc int) bool {
	for _, c := range p.spec.Crashes {
		if c.Proc == proc && p.clock >= c.At {
			return true
		}
	}
	return false
}

// DeliveryError reports that the reliable-delivery protocol exhausted its
// retry budget on one message: the network (a partition, a crashed
// processor, or sheer loss rate) defeated every retransmission. It is
// thrown by panic from inside Route and recovered by run-level drivers.
type DeliveryError struct {
	Router   string
	Src, Dst int
	Seq      uint64
	Attempts int
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("faults: router %s: delivery %d -> %d (seq %d) failed after %d attempts",
		e.Router, e.Src, e.Dst, e.Seq, e.Attempts)
}
