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
	// Each GC empties the runtime's central cache of the records parked
	// goroutines wait on, so the next Run's processors allocate new ones.
	// The engine is not at fault, so GC stays off while the test counts.
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
			// The fewest mallocs of 3 Runs: where the runtime parks and
			// wakes the P processor goroutines still adds a little noise.
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
