//go:build race

package bsplib

import "testing"

// TestReleasedBuffersArePoisoned keeps a lease or a delivery view past its
// release point, as a program with a stale-buffer bug does, and requires
// every kept byte to read as poison: a race build overwrites each region
// once the synchronization that releases it returns. Escapes into a field,
// a global, a container or through a pointer are the same bug at run time:
// whatever holds the slice reads it after the Sync.
func TestReleasedBuffersArePoisoned(t *testing.T) {
	lease := func(end func(*Context)) func(*Context) []byte {
		return func(ctx *Context) []byte {
			b := ctx.PayloadBuf(8)
			copy(b, "leased!!")
			ctx.Send(1-ctx.ID(), 1, b)
			end(ctx)
			return b
		}
	}
	view := func(get func(*Context) []byte) func(*Context) []byte {
		return func(ctx *Context) []byte {
			ctx.Send(1-ctx.ID(), 1, []byte("delivered"))
			ctx.Sync()
			v := get(ctx)
			ctx.Sync()
			return v
		}
	}
	cases := []struct {
		name string
		simd bool
		// keep runs the program and returns the buffer it kept past the
		// buffer's release point.
		keep func(*Context) []byte
	}{
		{"PayloadBuf lease after Sync", true, lease((*Context).Sync)},
		{"PayloadBuf lease after Flush on MIMD", false, lease((*Context).Flush)},
		{"Recv view after next Sync", false, view(func(ctx *Context) []byte {
			return ctx.Recv(1)[0]
		})},
		{"RecvFrom view after next Sync", false, view(func(ctx *Context) []byte {
			return ctx.RecvFrom(1-ctx.ID(), 1)
		})},
		{"RecvMsgs Payload after next Sync", false, view(func(ctx *Context) []byte {
			return ctx.RecvMsgs()[0].Payload
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
			_, err := Run(fakeMachine(2, c.simd, r), func(ctx *Context) {
				kept := c.keep(ctx)
				if len(kept) == 0 {
					t.Errorf("processor %d kept no bytes", ctx.ID())
				}
				for i, b := range kept {
					if b != poisonByte {
						t.Errorf("processor %d: kept byte %d reads %#x after release, want poison %#x", ctx.ID(), i, b, poisonByte)
						break
					}
				}
			}, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
