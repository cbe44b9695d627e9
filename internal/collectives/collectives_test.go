package collectives

import (
	"testing"

	"quantpar/internal/bsplib"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends"
)

func cm5(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.Build("cm5")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run executes a per-processor body and funnels panics through the engine.
func run(t *testing.T, m *machine.Machine, body func(ctx *bsplib.Context)) {
	t.Helper()
	if _, err := bsplib.Run(m, body, bsplib.Options{Seed: 99}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	m := cm5(t)
	words := make([]uint32, 37) // deliberately not a multiple of P
	for i := range words {
		words[i] = uint32(i * i)
	}
	got := make([][]uint32, m.P())
	run(t, m, func(ctx *bsplib.Context) {
		var in []uint32
		if ctx.ID() == 5 {
			in = words
		}
		got[ctx.ID()] = Broadcast(ctx, 5, in)
	})
	for id, g := range got {
		if len(g) != len(words) {
			t.Fatalf("processor %d got %d words", id, len(g))
		}
		for i := range words {
			if g[i] != words[i] {
				t.Fatalf("processor %d word %d = %d, want %d", id, i, g[i], words[i])
			}
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	m := cm5(t)
	p := m.P()
	words := make([]uint32, 4*p)
	for i := range words {
		words[i] = uint32(3*i + 1)
	}
	var back []uint32
	run(t, m, func(ctx *bsplib.Context) {
		var in []uint32
		if ctx.ID() == 0 {
			in = words
		}
		chunk := Scatter(ctx, 0, in)
		if len(chunk) != 4 {
			panic("wrong chunk size")
		}
		out := Gather(ctx, 0, chunk)
		if ctx.ID() == 0 {
			back = out
		} else if out != nil {
			panic("non-root received gather output")
		}
	})
	for i := range words {
		if back[i] != words[i] {
			t.Fatalf("round trip word %d = %d, want %d", i, back[i], words[i])
		}
	}
}

func TestAllGather(t *testing.T) {
	m := cm5(t)
	p := m.P()
	got := make([][]uint32, p)
	run(t, m, func(ctx *bsplib.Context) {
		got[ctx.ID()] = AllGather(ctx, []uint32{uint32(ctx.ID()), uint32(ctx.ID() * 2)})
	})
	for id := range got {
		for src := 0; src < p; src++ {
			if got[id][2*src] != uint32(src) || got[id][2*src+1] != uint32(2*src) {
				t.Fatalf("processor %d slot %d wrong: %v", id, src, got[id][2*src:2*src+2])
			}
		}
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	m := cm5(t)
	p := m.P()
	var at0 uint32
	all := make([]uint32, p)
	run(t, m, func(ctx *bsplib.Context) {
		v := Reduce(ctx, uint32(ctx.ID()+1), Sum)
		if ctx.ID() == 0 {
			at0 = v
		}
		all[ctx.ID()] = AllReduce(ctx, uint32(ctx.ID()+1), Sum)
	})
	want := uint32(p * (p + 1) / 2)
	if at0 != want {
		t.Fatalf("reduce at root %d, want %d", at0, want)
	}
	for id, v := range all {
		if v != want {
			t.Fatalf("all-reduce at %d = %d, want %d", id, v, want)
		}
	}
}

func TestAllReduceMaxMin(t *testing.T) {
	m := cm5(t)
	maxes := make([]uint32, m.P())
	mins := make([]uint32, m.P())
	run(t, m, func(ctx *bsplib.Context) {
		maxes[ctx.ID()] = AllReduce(ctx, uint32(ctx.ID()), Max)
		mins[ctx.ID()] = AllReduce(ctx, uint32(ctx.ID()+7), Min)
	})
	for id := range maxes {
		if maxes[id] != uint32(m.P()-1) {
			t.Fatalf("max at %d = %d", id, maxes[id])
		}
		if mins[id] != 7 {
			t.Fatalf("min at %d = %d", id, mins[id])
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	m := cm5(t)
	got := make([]uint32, m.P())
	run(t, m, func(ctx *bsplib.Context) {
		got[ctx.ID()] = ExclusiveScan(ctx, uint32(ctx.ID()+1), 0, Sum)
	})
	var want uint32
	for id := range got {
		if got[id] != want {
			t.Fatalf("scan at %d = %d, want %d", id, got[id], want)
		}
		want += uint32(id + 1)
	}
}

func TestTotalExchangeIsTranspose(t *testing.T) {
	m := cm5(t)
	p := m.P()
	got := make([][]uint32, p)
	run(t, m, func(ctx *bsplib.Context) {
		vec := make([]uint32, p)
		for d := range vec {
			vec[d] = uint32(ctx.ID()*1000 + d)
		}
		got[ctx.ID()] = TotalExchange(ctx, vec)
	})
	for me := 0; me < p; me++ {
		for src := 0; src < p; src++ {
			if got[me][src] != uint32(src*1000+me) {
				t.Fatalf("transpose wrong at (%d, %d): %d", me, src, got[me][src])
			}
		}
	}
}

func TestPredictions(t *testing.T) {
	b := coreBSP()
	if got := PredictBroadcast(b, 100); got != 2*(10*100+50) {
		t.Fatalf("broadcast prediction %g", got)
	}
	if got := PredictAllReduce(b, 1); got != 2*6*(10+50) {
		t.Fatalf("all-reduce prediction %g", got)
	}
	if got := PredictTotalExchange(b); got != 10*63+50 {
		t.Fatalf("total exchange prediction %g", got)
	}
}

func TestBroadcastPredictionTracksMeasurement(t *testing.T) {
	m := cm5(t)
	ref, err := machine.Reference("cm5")
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	words := make([]uint32, n)
	res, err := bsplib.Run(m, func(ctx *bsplib.Context) {
		var in []uint32
		if ctx.ID() == 0 {
			in = words
		}
		Broadcast(ctx, 0, in)
	}, bsplib.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Word size mismatch: the uint32 payloads are priced in 8-byte words
	// on the CM-5, so compare within a factor 2 band of the prediction.
	pred := PredictBroadcast(coreBSPFrom(ref, m.P()), n)
	if res.Time > 2.5*pred || res.Time < pred/4 {
		t.Fatalf("broadcast measured %g vs predicted %g: out of band", res.Time, pred)
	}
}
