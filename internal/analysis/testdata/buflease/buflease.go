// Package buflease is a qpvet golden-file fixture for the buffer-lease
// lifetime analyzer: every way a PayloadBuf lease or delivery view can
// outlive its superstep, next to the clean patterns the zero-copy pipeline
// actually uses.
package buflease

import (
	"quantpar/internal/bsplib"
)

func sink(b []byte) int { return len(b) }

type holder struct {
	buf []byte
	all [][]byte
}

var global []byte

// --- leases escaping the owning frame ---

func fieldEscape(ctx *bsplib.Context, h *holder) {
	b := ctx.PayloadBuf(64)
	h.buf = b // want "field or qualified variable"
}

func globalEscape(ctx *bsplib.Context) {
	b := ctx.PayloadBuf(32)
	global = b // want "package-level variable"
}

func fieldElemEscape(ctx *bsplib.Context, h *holder) {
	h.all[0] = ctx.PayloadBuf(16) // want "element of field"
}

func fieldAppendEscape(ctx *bsplib.Context, h *holder) {
	b := ctx.PayloadBuf(16)
	h.all = append(h.all, b) // want "field or qualified variable"
}

func containerEscape(ctx *bsplib.Context, h *holder) {
	batch := [][]byte{ctx.PayloadBuf(8)}
	h.all = batch // want "field or qualified variable"
}

func pointerEscape(ctx *bsplib.Context, out *[]byte) {
	*out = ctx.PayloadBuf(64) // want "through a pointer"
}

// Leases may move through local containers freely.
func localContainer(ctx *bsplib.Context) {
	var batch [][]byte
	for i := 0; i < 4; i++ {
		batch = append(batch, ctx.PayloadBuf(8))
	}
	for _, b := range batch {
		ctx.Send(0, 0, b)
	}
}

// --- goroutine captures ---

func goroutineCapture(ctx *bsplib.Context) {
	b := ctx.PayloadBuf(64)
	go func() {
		sink(b) // want "goroutine capture"
	}()
	ctx.Sync()
}

func goroutineArg(ctx *bsplib.Context) {
	b := ctx.PayloadBuf(64)
	go sink(b) // want "goroutine capture"
	ctx.Sync()
}

// --- superstep-scoped values across Sync ---

func stepLeaseAcrossSync(ctx *bsplib.Context) int {
	buf := ctx.PayloadBuf(64)
	ctx.Send(1, 0, buf)
	ctx.Sync()
	return sink(buf) // want "cross-Sync retention"
}

func viewAcrossSync(ctx *bsplib.Context) int {
	views := ctx.Recv(7)
	ctx.Sync()
	return sink(views[0]) // want "cross-Sync retention"
}

func recvFromAcrossSync(ctx *bsplib.Context) byte {
	row := ctx.RecvFrom(2, 0)
	ctx.Sync()
	return row[9] // want "cross-Sync retention"
}

func msgPayloadAcrossSync(ctx *bsplib.Context) []byte {
	msgs := ctx.RecvMsgs()
	var keep []byte
	for _, m := range msgs {
		keep = m.Payload
	}
	ctx.Sync()
	return keep // want "cross-Sync retention"
}

// The whole point of the delivery arena: views are free to use inside the
// superstep that received them.
func viewWithinStep(ctx *bsplib.Context) int {
	total := 0
	for _, b := range ctx.Recv(0) {
		total += sink(b)
	}
	ctx.Sync()
	return total
}

// --- facts crossing one call level via summaries ---

func barrier(ctx *bsplib.Context) {
	ctx.Sync()
}

func summarySync(ctx *bsplib.Context) int {
	buf := ctx.PayloadBuf(16)
	ctx.Send(0, 1, buf)
	barrier(ctx)
	return sink(buf) // want "cross-Sync retention"
}

func stash(h *holder, b []byte) {
	h.buf = b
}

func summaryStore(ctx *bsplib.Context, h *holder) {
	b := ctx.PayloadBuf(64)
	stash(h, b) // want "beyond the call frame"
	ctx.Sync()
}

func acquire(ctx *bsplib.Context) []byte {
	return ctx.PayloadBuf(256)
}

func summaryReturnEscape(ctx *bsplib.Context) {
	global = acquire(ctx) // want "package-level variable"
}
