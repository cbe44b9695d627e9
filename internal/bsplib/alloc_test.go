package bsplib

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"quantpar/internal/machine"
	"quantpar/internal/wire"
)

// TestSuperstepAllocsDoNotScaleWithMessages pins the zero-copy pipeline's
// steady state: once a machine's phase memo is warm, a superstep costs a
// small constant number of allocations however many messages it carries.
// Sending, step building (MIMD, SIMD blocks, SIMD word streams) and
// delivery all reuse engine and processor scratch. Each Run starts with
// fresh scratch, so the test compares Runs of 4 and 12 supersteps and
// charges only the difference to the 8 extra supersteps.
func TestSuperstepAllocsDoNotScaleWithMessages(t *testing.T) {
	const maxPerStep = 64
	// GC stays off while the test counts, so that no collection falls
	// inside a counted Run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	words := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []struct {
		name, machine string
		k             int  // messages each PE sends per superstep
		stream        bool // SendWords instead of Send
	}{
		{"cm5", "cm5", 16, false},
		{"gcel", "gcel", 16, false},
		{"maspar/blocks", "maspar", 4, false},
		{"maspar/words", "maspar", 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := machine.Build(c.machine)
			if err != nil {
				t.Fatal(err)
			}
			// The fewest mallocs of 3 Runs: the runtime allocates a
			// record for a Run's helper goroutine only when it has no
			// free one to reuse.
			mallocs := func(steps int) uint64 {
				prog := func(ctx *Context) {
					for s := 0; s < steps; s++ {
						for j := 1; j <= c.k; j++ {
							dst := (ctx.ID() + j) % ctx.P()
							buf := wire.AppendUint32s(ctx.PayloadBuf(4 * len(words))[:0], words)
							if c.stream {
								ctx.SendWords(dst, 1, buf)
							} else {
								ctx.Send(dst, 1, buf)
							}
						}
						ctx.Sync()
						if got := len(ctx.RecvMsgs()); got != c.k {
							t.Errorf("PE %d received %d messages, want %d", ctx.ID(), got, c.k)
						}
					}
				}
				fewest := uint64(math.MaxUint64)
				for i := 0; i < 3; i++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					if _, err := Run(m, prog, Options{Seed: 1}); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&after)
					fewest = min(fewest, after.Mallocs-before.Mallocs)
				}
				return fewest
			}
			mallocs(12) // fills the phase memo
			short, long := mallocs(4), mallocs(12)
			perStep := (float64(long) - float64(short)) / 8
			t.Logf("%d messages per superstep: %.1f allocations per superstep", c.k*m.P(), perStep)
			if perStep >= maxPerStep {
				t.Errorf("%.1f allocations per superstep of %d messages, want < %d", perStep, c.k*m.P(), maxPerStep)
			}
		})
	}
}

// TestMIMDSendListsSizedOncePerStep pins the MIMD step build: a word
// stream expands into one message per word, and the engine sizes each
// processor's send list once per step instead of growing it message by
// message. With the phase memo warm, so that routing replays, a Run's
// allocations therefore do not grow with the stream length.
func TestMIMDSendListsSizedOncePerStep(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // see above
	m, err := machine.Build("cm5")
	if err != nil {
		t.Fatal(err)
	}
	const streams = 6
	mallocs := func(words int) uint64 {
		// Each processor streams to itself: its list is built as for any
		// destination, and the one simulation that fills the memo stays
		// cheap.
		prog := func(ctx *Context) {
			buf := ctx.PayloadBuf(4 * words)
			for s := 1; s <= streams; s++ {
				ctx.SendWords(ctx.ID(), s, buf)
			}
			ctx.Sync()
		}
		if _, err := Run(m, prog, Options{Seed: 1}); err != nil { // fills the phase memo
			t.Fatal(err)
		}
		fewest := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			runtime.GC() // the only collections: free the previous Run
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(m, prog, Options{Seed: 1}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	short, long := mallocs(1024), mallocs(8192)
	t.Logf("%d and %d messages per processor: %d and %d allocations", streams*1024, streams*8192, short, long)
	if d := int(long) - int(short); max(d, -d) >= m.P() {
		t.Errorf("%d allocations at 8192 words per stream against %d at 1024, want a difference below P = %d",
			long, short, m.P())
	}
}
