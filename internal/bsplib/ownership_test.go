package bsplib

import (
	"bytes"
	"testing"
)

// Tests for the buffer-ownership contract of the zero-copy pipeline: the
// engine copies every payload into its own delivery buffers during the
// synchronization, so a sender regains ownership of its buffer the moment
// its Sync/Flush returns, and receivers can never observe later mutations.

// TestSentBufferMutationDoesNotReachReceiver mutates a sent buffer right
// after the sender's Sync returns, while the receiver is still reading the
// delivery. The receiver must see the original bytes: the delivered payload
// is an engine-owned copy, not a view of sender memory.
func TestSentBufferMutationDoesNotReachReceiver(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, false, r)
	_, err := Run(m, func(ctx *Context) {
		switch ctx.ID() {
		case 0:
			buf := []byte("payload-one")
			ctx.Send(1, 1, buf)
			ctx.Sync()
			// The engine copied the payload during the sync; this processor
			// owns buf again and may scribble on it freely - concurrently
			// with the receiver reading its delivered copy.
			for i := range buf {
				buf[i] = 'X'
			}
			ctx.Sync()
		case 1:
			ctx.Sync()
			if got := string(ctx.RecvFrom(0, 1)); got != "payload-one" {
				t.Errorf("receiver saw %q, want the bytes at send time", got)
			}
			ctx.Sync()
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPayloadBufRecyclingPreservesDeliveries leases a payload buffer, sends
// it, and after the sync leases again: the recycled backing is overwritten
// with new bytes while the first delivery must remain intact.
func TestPayloadBufRecyclingPreservesDeliveries(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, false, r)
	_, err := Run(m, func(ctx *Context) {
		switch ctx.ID() {
		case 0:
			b1 := ctx.PayloadBuf(8)
			for i := range b1 {
				b1[i] = 'A'
			}
			ctx.Send(1, 1, b1)
			ctx.Sync()
			b2 := ctx.PayloadBuf(8)
			for i := range b2 {
				b2[i] = 'B'
			}
			ctx.Send(1, 1, b2)
			ctx.Sync()
		case 1:
			ctx.Sync()
			if got := ctx.RecvFrom(0, 1); !bytes.Equal(got, bytes.Repeat([]byte{'A'}, 8)) {
				t.Errorf("first delivery = %q, want AAAAAAAA", got)
			}
			ctx.Sync()
			if got := ctx.RecvFrom(0, 1); !bytes.Equal(got, bytes.Repeat([]byte{'B'}, 8)) {
				t.Errorf("second delivery = %q, want BBBBBBBB", got)
			}
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPayloadBufLeasesDoNotOverlap takes two small leases from an arena
// with room to spare and appends to the first: the append must not run
// into the second lease, which is carved from the same backing.
func TestPayloadBufLeasesDoNotOverlap(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, false, r)
	_, err := Run(m, func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.PayloadBuf(64) // leaves the arena 64 bytes of room
		}
		ctx.Sync()
		if ctx.ID() == 0 {
			a, b := ctx.PayloadBuf(4), ctx.PayloadBuf(4)
			copy(b, "BBBB")
			copy(a, "aaaa")
			a = append(a, "AAAA"...)
			if string(b) != "BBBB" {
				t.Errorf("second lease = %q after appending to the first, want BBBB", b)
			}
			ctx.Send(1, 1, a)
		}
		ctx.Sync()
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForwardingReceivedPayload forwards a received slice verbatim in the
// next step. The delivery machinery must copy new payloads out before
// releasing the previous step's buffers, so forwarding an engine-owned view
// is legal under the ownership rule ("intact until the sync that delivers
// it").
func TestForwardingReceivedPayload(t *testing.T) {
	r := &fakeRouter{procs: 3, base: 1, msgCost: 1}
	m := fakeMachine(3, false, r)
	_, err := Run(m, func(ctx *Context) {
		switch ctx.ID() {
		case 0:
			ctx.Send(1, 1, []byte("relay-me"))
			ctx.Sync()
			ctx.Sync()
		case 1:
			ctx.Sync()
			got := ctx.RecvFrom(0, 1)
			ctx.Send(2, 1, got) // forward the engine-owned view itself
			ctx.Sync()
		case 2:
			ctx.Sync()
			ctx.Sync()
			if got := string(ctx.RecvFrom(1, 1)); got != "relay-me" {
				t.Errorf("forwarded payload = %q, want relay-me", got)
			}
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}
