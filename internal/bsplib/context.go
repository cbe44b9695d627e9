package bsplib

import (
	"fmt"
	"math"

	"quantpar/internal/machine"
	"quantpar/internal/sim"
)

// Context is a simulated processor's handle to the engine. Each processor
// owns exactly one Context, which its program may use only on the goroutine
// the engine runs it on.
type Context struct {
	e   *engine
	id  int
	rng sim.RNG
	w   *worker // the coroutine that runs this processor's program

	// compute, outbox and barrier are what this processor files at each
	// synchronization. The engine reads them while the processor is
	// suspended, folds compute into the clocks and empties the outbox.
	compute sim.Time
	outbox  []outMsg
	barrier bool
	// inbox holds what the last synchronization delivered.
	inbox []Message
	// synced is whether the program synchronized at its last resumption
	// rather than ending; err is the panic that ended it, if any.
	synced bool
	err    error

	// lease is the arena PayloadBuf carves send-side payload buffers
	// from. step empties it after each synchronization: the engine has
	// copied every payload into its own delivery arena by then.
	lease []byte
}

// ID returns this processor's index in [0, P).
func (c *Context) ID() int { return c.id }

// P returns the number of processors.
func (c *Context) P() int { return c.e.n }

// Machine returns the machine the program runs on.
func (c *Context) Machine() *machine.Machine { return c.e.m }

// WordBytes returns the machine's computational word size in bytes.
func (c *Context) WordBytes() int { return c.e.m.WordBytes }

// RNG returns this processor's private deterministic random stream.
func (c *Context) RNG() *sim.RNG { return &c.rng }

// Charge accounts t microseconds of local computation on this processor.
// t must be non-negative and finite.
func (c *Context) Charge(t sim.Time) {
	if !(t >= 0 && !math.IsInf(t, 1)) {
		panic(fmt.Sprintf("bsplib: invalid charge %g on processor %d", t, c.id))
	}
	c.compute += t
}

// ChargeOps accounts n generic word operations through the machine's
// compute model.
func (c *Context) ChargeOps(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bsplib: negative op count %d on processor %d", n, c.id))
	}
	c.compute += c.e.m.Compute.OpTime(n)
}

// PayloadBuf returns an n-byte scratch buffer for building an outgoing
// payload, carved from this processor's private lease arena. The buffer is
// on loan until this processor's next Sync/Flush, after which it is
// recycled; encode into it, Send it, and never retain it across the
// synchronization. Under -race the synchronization overwrites its bytes
// with poison. Contents are uninitialized - callers are expected to
// overwrite every byte (wire.Append* encoders into buf[:0] do).
func (c *Context) PayloadBuf(n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("bsplib: invalid payload size %d on processor %d", n, c.id))
	}
	if cap(c.lease)-len(c.lease) < n {
		// Earlier leases of this step keep the old backing alive.
		c.lease = make([]byte, 0, max(2*cap(c.lease), n))
	}
	l := len(c.lease)
	c.lease = c.lease[:l+n]
	// Capacity-capped, so an append cannot reach the next lease.
	return c.lease[l : l+n : l+n]
}

// Send queues one block message to dst.
//
// Ownership: the payload must stay intact until this processor's next
// Sync/Flush returns; the engine copies it into its own delivery buffers
// during that synchronization, after which the caller owns the slice again
// and may reuse or mutate it freely. Buffers from PayloadBuf satisfy this
// automatically.
func (c *Context) Send(dst, tag int, payload []byte) {
	c.send(dst, tag, payload, false)
}

// SendWords queues a word stream to dst: traffic that the program logically
// transfers one machine word at a time. On SIMD machines the stream is
// priced as ceil(len/wordsize) synchronous one-word steps (the MP-BSP
// discipline); on MIMD machines it expands into individual word messages in
// send order, which is what makes staggered versus convergent schedules
// observable by the router.
func (c *Context) SendWords(dst, tag int, payload []byte) {
	c.send(dst, tag, payload, true)
}

func (c *Context) send(dst, tag int, payload []byte, stream bool) {
	if dst < 0 || dst >= c.e.n {
		panic(fmt.Sprintf("bsplib: processor %d sends to invalid destination %d", c.id, dst))
	}
	if len(payload) == 0 {
		panic(fmt.Sprintf("bsplib: processor %d sends empty payload", c.id))
	}
	c.outbox = append(c.outbox, outMsg{dst: dst, tag: tag, payload: payload, stream: stream})
}

// Sync ends the superstep with a barrier: all queued messages are priced
// and delivered, and every processor leaves the barrier with an aligned
// clock.
func (c *Context) Sync() {
	c.step(true)
}

// Flush ends the communication step without a barrier: messages are priced
// and delivered, but processor clock skews persist. On SIMD machines Flush
// is identical to Sync (the hardware is always aligned).
func (c *Context) Flush() {
	c.step(c.e.m.SIMD)
}

// unwind is the panic with which Sync and Flush end a program that Run
// unwinds before it returns, after a failure. run recovers it like any
// panic, but Run holds its error by then and never reads the unwound
// processors' ones. A program that recovers it unwinds again at its next
// synchronization.
type unwind struct{}

// run executes the program as this processor and keeps the panic that
// ended it, if any, as its error.
func (c *Context) run() {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("bsplib: processor %d: %w", c.id, panicError(r))
		}
	}()
	c.e.prog(c)
}

// step suspends this processor until the engine has priced and delivered
// the step, or unwinds it if the run failed.
func (c *Context) step(barrier bool) {
	c.barrier = barrier
	c.w.yield(true)
	if c.e.stopping {
		panic(unwind{})
	}
	// The engine copied every payload into its own delivery arena before
	// it resumed this processor, so the lease arena is this processor's
	// again: recycle it, making the steady-state send path
	// allocation-free.
	poison(c.lease)
	c.lease = c.lease[:0]
}

// Recv returns the payloads of all messages with the given tag delivered at
// the last Sync/Flush, ordered by source processor and send order.
//
// The payloads are views into engine-owned delivery buffers, valid only
// until this processor's next Sync/Flush, which poisons them under -race;
// decode (copy) them before then and never retain them across it.
func (c *Context) Recv(tag int) [][]byte {
	var out [][]byte
	for _, m := range c.inbox {
		if m.Tag == tag {
			out = append(out, m.Payload)
		}
	}
	return out
}

// RecvFrom returns the payload of the first message with the given tag from
// src delivered at the last Sync/Flush, or nil if there is none. The same
// validity rule as Recv applies: the slice is an engine-owned delivery
// buffer, dead and under -race poisoned after the next Sync/Flush.
func (c *Context) RecvFrom(src, tag int) []byte {
	for _, m := range c.inbox {
		if m.Src == src && m.Tag == tag {
			return m.Payload
		}
	}
	return nil
}

// Message is a message delivered to a processor: its source, the tag the
// sender chose, and the payload.
//
// Ownership: the sender's payload was copied into an engine-owned delivery
// buffer at the synchronization that carried it, so the sender may reuse
// or mutate its own slice once that synchronization returns. Payload is a
// view into the delivery buffer, valid only until the receiving
// processor's next Sync/Flush: decode (copy) it before then, never retain
// it. Under -race that synchronization overwrites its bytes with poison.
type Message struct {
	Src     int
	Tag     int
	Payload []byte
}

// RecvMsgs returns all messages delivered at the last Sync/Flush, ordered
// by source processor and send order. The returned slice and its payloads
// are valid until this processor's next Sync/Flush.
func (c *Context) RecvMsgs() []Message {
	return c.inbox
}
