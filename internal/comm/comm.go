// Package comm defines the communication vocabulary shared by the machine
// simulators and the superstep engine: messages, communication steps (a set
// of ordered per-processor send lists), and routing results.
//
// The routers price a step from its (source, destination, size, order)
// structure alone, so a Msg carries nothing else: no tag and no payload.
// The superstep engine keeps those on its own side and delivers payloads
// after the router has priced the step, so algorithm correctness and cost
// modelling stay decoupled.
package comm

import (
	"fmt"

	"quantpar/internal/sim"
)

// Msg is one point-to-point message as a router prices it: who sends it,
// to whom, and how many bytes. It holds no pointer, so a step's send lists
// cost the garbage collector nothing to scan.
type Msg struct {
	Src, Dst int
	Bytes    int
}

// Digest is a 128-bit canonical fingerprint of a communication pattern:
// the per-processor ordered (destination, size) lists, the start offsets,
// and the barrier flag — everything that determines a router's pricing of
// a step except the router's own identity and RNG stream. Payload bytes
// are deliberately excluded: routers never look at them. The zero Digest
// means "not computed".
type Digest struct {
	Hi, Lo uint64
}

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d.Hi == 0 && d.Lo == 0 }

// Step is one communication step: for each processor, the ordered list of
// messages it injects. Order matters on machines with receiver contention
// (the CM-5) - it is what makes "staggered" communication observable.
type Step struct {
	// Sends[p] is the ordered send list of processor p.
	Sends [][]Msg
	// Offsets[p] is processor p's local clock skew (microseconds ahead of
	// the earliest processor) when the step begins. Nil means all zero.
	// Only asynchronous machines (the GCel) produce non-zero skews.
	Offsets []sim.Time
	// Barrier reports whether a barrier synchronization closes the step.
	Barrier bool
	// Memo is the step's precomputed pattern digest, when the caller has
	// already fingerprinted the step (the superstep engine computes it to
	// derive the step's RNG stream). Zero means unset; a memoizing router
	// computes the digest itself in that case.
	Memo Digest
}

// NumMsgs returns the total number of messages in the step.
func (s *Step) NumMsgs() int {
	n := 0
	for _, list := range s.Sends {
		n += len(list)
	}
	return n
}

// Degrees returns, for each processor, the number of messages it sends
// (out) and receives (in): the step's h-relation is the largest of them.
func (s *Step) Degrees() (out, in []int) {
	p := len(s.Sends)
	out = make([]int, p)
	in = make([]int, p)
	for src, list := range s.Sends {
		out[src] = len(list)
		for _, m := range list {
			if m.Dst < 0 || m.Dst >= p {
				panic(fmt.Sprintf("comm: message to processor %d of %d", m.Dst, p))
			}
			in[m.Dst]++
		}
	}
	return out, in
}

// Result is the outcome of routing one step.
type Result struct {
	// Elapsed is the wall time of the step from the moment the first
	// processor entered it until the communication (and barrier, if any)
	// completed, in microseconds.
	Elapsed sim.Time
	// Finish[p] is processor p's local finish skew after the step (zero
	// for all processors when the step ends in a barrier).
	//
	// Ownership: Finish may alias scratch owned by the router, valid only
	// until that router's next Route call. Consumers must read (or copy) it
	// before routing another step and must never write through it.
	Finish []sim.Time
	// Stats carries mechanism-level counters for diagnostics and tests.
	Stats Stats
	// Events counts the discrete simulation events the router processed to
	// price the step (heap pops, waves, injections — each router documents
	// its own unit). A replayed result reports zero: no simulation ran.
	Events int
	// Replayed reports that the result was served from a phase memo cache
	// rather than fresh event-driven simulation.
	Replayed bool
}

// Stats aggregates mechanism-level counters exposed by the routers.
//
// Msgs counts frames the interconnect carried, not logical messages: under
// the reliable-delivery protocol a retransmitted or duplicated message adds
// a frame each time it crosses the network.
type Stats struct {
	Msgs        int
	Bytes       int
	Waves       int // MasPar: circuit-establishment waves
	Conflicts   int // MasPar: deferred circuit attempts; mesh: link waits
	Stalls      int // CM-5: sender stalls on busy receivers
	BufferFulls int // GCel: receive-buffer overflow penalties
	MaxLinkLoad int // mesh/fat tree: most loaded link (messages)
	HopSum      int // mesh: total hops travelled

	// Fault-injection counters, all zero when no fault plan is active.
	Retries    int // data frames retransmitted after a timeout
	Dropped    int // frames the injector discarded in flight
	Corrupted  int // frames delivered with a failed integrity check
	Duplicated int // extra frame copies the injector manufactured
	Delayed    int // frames held past their ack deadline
	Acks       int // acknowledgement frames carried for the protocol
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Msgs += other.Msgs
	s.Bytes += other.Bytes
	s.Waves += other.Waves
	s.Conflicts += other.Conflicts
	s.Stalls += other.Stalls
	s.BufferFulls += other.BufferFulls
	if other.MaxLinkLoad > s.MaxLinkLoad {
		s.MaxLinkLoad = other.MaxLinkLoad
	}
	s.HopSum += other.HopSum
	s.Retries += other.Retries
	s.Dropped += other.Dropped
	s.Corrupted += other.Corrupted
	s.Duplicated += other.Duplicated
	s.Delayed += other.Delayed
	s.Acks += other.Acks
}

// Router prices communication steps on a particular interconnect.
// Implementations must be deterministic given the step and the RNG stream.
type Router interface {
	// Name identifies the router (for reports and error messages).
	Name() string
	// Procs returns the number of processors the router connects.
	Procs() int
	// Route simulates the step and returns its timing.
	Route(step *Step, rng *sim.RNG) Result
}
