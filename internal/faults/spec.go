// Package faults is the deterministic fault injector for the netsim
// engines: a JSON-encodable schedule (Spec) of message-level fault rates,
// link kills/heals, and processor stalls/crashes, compiled into a Plan
// whose every decision is drawn from an rng.Split-derived stream keyed by
// (step, sequence number, attempt). Decisions are therefore pure functions
// of the spec — independent of goroutine scheduling, worker count, and
// retry execution order — which is what keeps faulty runs byte-identical
// across -j1/-j8 and repeatable from the spec alone.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"quantpar/internal/sim"
)

// validTime reports whether t is a usable schedule time: non-negative and
// not NaN.
func validTime(t sim.Time) bool {
	return t >= 0 && !math.IsNaN(float64(t))
}

// LinkKill schedules the failure of one undirected link. The link is dead
// from KillAt (inclusive) until HealAt; HealAt == 0 means it never heals.
// Times are simulated microseconds on the fault clock, which starts at
// zero when a run begins (see Plan.ResetClock). Link liveness is sampled
// at each communication step's start.
type LinkKill struct {
	U, V   int
	KillAt sim.Time
	HealAt sim.Time
}

// heals reports whether the kill has a heal time scheduled (a positive
// HealAt; the zero value means the link stays dead forever).
func (k LinkKill) heals() bool { return k.HealAt > 0 }

// Stall schedules a transient processor stall: the processor performs no
// work during [At, At+Duration). A communication step that begins inside
// the window sees the processor's sends delayed by the remaining stall
// time.
type Stall struct {
	Proc     int
	At       sim.Time
	Duration sim.Time
}

// Crash schedules a permanent processor failure at time At: every frame
// the processor would send or receive afterwards is lost. The reliable-
// delivery protocol's retry budget then converts traffic involving the
// crashed processor into a structured *DeliveryError.
type Crash struct {
	Proc int
	At   sim.Time
}

// Protocol configures the reliable-delivery layer that runs on top of the
// engines when a fault plan is active. Zero values select the defaults.
type Protocol struct {
	// Timeout is the retransmission timeout charged when a round leaves
	// unacknowledged messages, in microseconds. 0 means self-scaling: twice
	// the elapsed time of the round's data sub-step.
	Timeout sim.Time
	// Backoff is the multiplicative timeout growth per retry round
	// (exponential backoff). 0 means DefaultBackoff.
	Backoff float64
	// MaxRetries bounds the retransmission rounds after the first attempt;
	// exhausting it raises *DeliveryError. 0 means DefaultMaxRetries.
	MaxRetries int
	// AckBytes is the size of an acknowledgement frame. 0 means
	// DefaultAckBytes.
	AckBytes int
}

// Watchdog configures the sim.Watchdog limits applied to the engines
// while the plan is active. Zero values keep the sim package defaults.
type Watchdog struct {
	MaxEvents int
	Horizon   sim.Time
}

// Protocol and injector defaults.
const (
	DefaultBackoff    = 2.0
	DefaultMaxRetries = 8
	DefaultAckBytes   = 8
)

// Spec is the complete, serializable fault schedule. The zero Spec
// injects nothing. All rates are per-frame probabilities in [0, 1] whose
// sum must not exceed 1 (one uniform draw decides each frame's fate).
type Spec struct {
	// Seed roots every fault-decision RNG stream.
	Seed uint64
	// DropRate is the probability a frame vanishes in flight.
	DropRate float64
	// CorruptRate is the probability a frame arrives failing its integrity
	// check; the protocol discards it, so it behaves as a detected loss.
	CorruptRate float64
	// DelayRate is the probability a frame arrives after the sender's ack
	// deadline: the sender retransmits and the receiver suppresses the
	// duplicate.
	DelayRate float64
	// DuplicateRate is the probability the network manufactures an extra
	// copy of a frame (both traverse; the receiver keeps one).
	DuplicateRate float64

	LinkKills []LinkKill
	Stalls    []Stall
	Crashes   []Crash

	Protocol Protocol
	Watchdog Watchdog
}

// Validate checks the spec's invariants.
func (s *Spec) Validate() error {
	rates := [...]struct {
		name string
		v    float64
	}{
		{"DropRate", s.DropRate},
		{"CorruptRate", s.CorruptRate},
		{"DelayRate", s.DelayRate},
		{"DuplicateRate", s.DuplicateRate},
	}
	sum := 0.0
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("faults: %s %g outside [0, 1]", r.name, r.v)
		}
		sum += r.v
	}
	if sum > 1 {
		return fmt.Errorf("faults: fault rates sum to %g > 1", sum)
	}
	for i, k := range s.LinkKills {
		if k.U < 0 || k.V < 0 {
			return fmt.Errorf("faults: LinkKills[%d] has negative endpoint (%d, %d)", i, k.U, k.V)
		}
		if k.U == k.V {
			return fmt.Errorf("faults: LinkKills[%d] kills self-loop on node %d", i, k.U)
		}
		if !validTime(k.KillAt) {
			return fmt.Errorf("faults: LinkKills[%d] has invalid KillAt %g", i, float64(k.KillAt))
		}
		if !validTime(k.HealAt) || (k.heals() && k.HealAt <= k.KillAt) {
			return fmt.Errorf("faults: LinkKills[%d] heals at %g, not after kill at %g", i, float64(k.HealAt), float64(k.KillAt))
		}
	}
	for i, st := range s.Stalls {
		if st.Proc < 0 {
			return fmt.Errorf("faults: Stalls[%d] names negative processor %d", i, st.Proc)
		}
		if !validTime(st.At) || !validTime(st.Duration) {
			return fmt.Errorf("faults: Stalls[%d] has invalid window (%g, %g)", i, float64(st.At), float64(st.Duration))
		}
	}
	for i, c := range s.Crashes {
		if c.Proc < 0 {
			return fmt.Errorf("faults: Crashes[%d] names negative processor %d", i, c.Proc)
		}
		if !validTime(c.At) {
			return fmt.Errorf("faults: Crashes[%d] has invalid time %g", i, float64(c.At))
		}
	}
	p := s.Protocol
	if !validTime(p.Timeout) {
		return fmt.Errorf("faults: negative protocol timeout %g", float64(p.Timeout))
	}
	if p.Backoff != 0 && (p.Backoff < 1 || p.Backoff != p.Backoff) {
		return fmt.Errorf("faults: protocol backoff %g must be >= 1", p.Backoff)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("faults: negative protocol retry budget %d", p.MaxRetries)
	}
	if p.AckBytes < 0 {
		return fmt.Errorf("faults: negative ack frame size %d", p.AckBytes)
	}
	if s.Watchdog.MaxEvents < 0 {
		return fmt.Errorf("faults: negative watchdog event budget %d", s.Watchdog.MaxEvents)
	}
	if !validTime(s.Watchdog.Horizon) {
		return fmt.Errorf("faults: invalid watchdog horizon %g", float64(s.Watchdog.Horizon))
	}
	return nil
}

// BackoffEffective returns the backoff factor with the default applied.
func (p Protocol) BackoffEffective() float64 {
	if p.Backoff == 0 {
		return DefaultBackoff
	}
	return p.Backoff
}

// MaxRetriesEffective returns the retry budget with the default applied.
func (p Protocol) MaxRetriesEffective() int {
	if p.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// AckBytesEffective returns the ack frame size with the default applied.
func (p Protocol) AckBytesEffective() int {
	if p.AckBytes == 0 {
		return DefaultAckBytes
	}
	return p.AckBytes
}

// DecodeSpec parses and validates a JSON-encoded fault spec. Unknown
// fields are rejected so a typo in a schedule fails loudly instead of
// silently injecting nothing.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("faults: decoding spec: %w", err)
	}
	// Trailing garbage after the object is a malformed schedule too.
	if dec.More() {
		return Spec{}, fmt.Errorf("faults: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
