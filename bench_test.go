// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the corresponding data series at quick scale; set QP_FULL=1
// for the paper's ranges), plus ablation benchmarks for the design decisions called out in
// DESIGN.md. The figure benchmarks report simulated microseconds per data
// point (sim-us/pt) and event-loop work per iteration (sim-events/op —
// events actually simulated, so phase-cache replays count zero) alongside
// the usual wall-clock ns/op of regenerating the series.
package quantpar_test

import (
	"fmt"
	"os"
	"testing"

	"quantpar"
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/bsplib"
	"quantpar/internal/calibrate"
	"quantpar/internal/comm"
	"quantpar/internal/experiments"
	"quantpar/internal/machine"
	_ "quantpar/internal/machine/backends"
	"quantpar/internal/phase"
	"quantpar/internal/router/maspar"
	"quantpar/internal/router/mesh"
	"quantpar/internal/sim"
)

// benchContext picks the sweep scale: QP_FULL=1 reproduces the paper's
// ranges, default stays laptop-quick.
func benchContext() *experiments.Context {
	ctx := experiments.DefaultContext()
	if os.Getenv("QP_FULL") == "1" {
		ctx.Scale = experiments.Full
	}
	return ctx
}

// benchExperiment runs one figure/table experiment per iteration and
// fails the benchmark if the paper's shape checks stop holding.
func benchExperiment(b *testing.B, id string) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := benchContext()
	b.ReportAllocs()
	var simTime float64
	var points int
	ev0 := phase.SimEvents()
	for i := 0; i < b.N; i++ {
		o, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Passed() {
			for _, c := range o.Checks {
				if !c.Pass {
					b.Fatalf("%s: %s: %s", id, c.Name, c.Detail)
				}
			}
		}
		simTime = 0
		points = 0
		for _, s := range o.Series {
			for _, m := range s.Measured {
				simTime += m
				points++
			}
		}
	}
	if points > 0 {
		b.ReportMetric(simTime/float64(points), "sim-us/pt")
	}
	b.ReportMetric(float64(phase.SimEvents()-ev0)/float64(b.N), "sim-events/op")
}

func BenchmarkTable1Params(b *testing.B)              { benchExperiment(b, "table1") }
func BenchmarkFig01MasPar1hRelations(b *testing.B)    { benchExperiment(b, "fig01") }
func BenchmarkFig02MasParPartialPerm(b *testing.B)    { benchExperiment(b, "fig02") }
func BenchmarkFig03MatMulMPBSPMasPar(b *testing.B)    { benchExperiment(b, "fig03") }
func BenchmarkFig04MatMulBSPCM5(b *testing.B)         { benchExperiment(b, "fig04") }
func BenchmarkFig05BitonicMasPar(b *testing.B)        { benchExperiment(b, "fig05") }
func BenchmarkFig06BitonicGCel(b *testing.B)          { benchExperiment(b, "fig06") }
func BenchmarkFig07HHPermGCel(b *testing.B)           { benchExperiment(b, "fig07") }
func BenchmarkFig08MatMulBPRAMMasPar(b *testing.B)    { benchExperiment(b, "fig08") }
func BenchmarkFig09MatMulBPRAMCM5(b *testing.B)       { benchExperiment(b, "fig09") }
func BenchmarkFig10BitonicBPRAMMasPar(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11BitonicBPRAMGCel(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12APSPMasPar(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkFig13APSPGCel(b *testing.B)             { benchExperiment(b, "fig13") }
func BenchmarkFig14MultinodeScatterGCel(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15APSPCM5(b *testing.B)              { benchExperiment(b, "fig15") }
func BenchmarkFig16MatMulModelsCM5(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17BitonicModelsMasPar(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18SortDuelGCel(b *testing.B)         { benchExperiment(b, "fig18") }
func BenchmarkFig19VendorMasPar(b *testing.B)         { benchExperiment(b, "fig19") }
func BenchmarkFig20VendorCM5(b *testing.B)            { benchExperiment(b, "fig20") }
func BenchmarkConcl1MsgGranularity(b *testing.B)      { benchExperiment(b, "concl1") }

// --- ablation benchmarks (design decisions of DESIGN.md Section 5) ---

// BenchmarkAblationPatternCache measures the phase memo: the same MasPar
// bitonic run with the memo on and off.
func BenchmarkAblationPatternCache(b *testing.B) {
	m, err := machine.Build("maspar")
	if err != nil {
		b.Fatal(err)
	}
	defer phase.SetEnabled(true)
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"cached", true}, {"uncached", false}} {
		b.Run(mode.name, func(b *testing.B) {
			phase.SetEnabled(mode.enabled)
			for i := 0; i < b.N; i++ {
				_, err := bitonic.Run(m, bitonic.Config{
					KeysPerProc: 16, Variant: bitonic.Word, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStagger quantifies what the ordered-send-list design
// buys: the identical matmul with convergent versus staggered schedules on
// the CM-5 (the simulated-time gap is the Fig 4 effect).
func BenchmarkAblationStagger(b *testing.B) {
	m, err := machine.Build("cm5")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []matmul.Variant{matmul.BSPUnstaggered, matmul.BSPStaggered} {
		b.Run(v.String(), func(b *testing.B) {
			var simT float64
			for i := 0; i < b.N; i++ {
				res, err := matmul.Run(m, matmul.Config{N: 64, Q: 4, Variant: v, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				simT = res.Run.Time
			}
			b.ReportMetric(simT, "sim-us")
		})
	}
}

// BenchmarkAblationGCelBuffer compares the GCel h-h permutation with the
// finite receive buffer enabled (default) and effectively unlimited,
// showing the buffer is what produces the Fig 7 blow-up.
func BenchmarkAblationGCelBuffer(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		buffer int
	}{{"finite-256", 256}, {"unlimited", 0}} {
		p := mesh.DefaultParams()
		p.RecvBuffer = cfg.buffer
		r, err := mesh.New(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			var simT float64
			base := sim.NewRNG(7)
			for i := 0; i < b.N; i++ {
				s, err := calibrate.Fixed(r).MeasureSteps(func(r comm.Router, rng *sim.RNG) []*comm.Step {
					return calibrate.HHPermutation(r.Procs(), 512, 4, 0, rng)
				}, 2, base)
				if err != nil {
					b.Fatal(err)
				}
				simT = s.Mean
			}
			b.ReportMetric(simT/512, "sim-us/msg")
		})
	}
}

// BenchmarkAblationGCelOverheadSplit shows the receiver-dominated overhead
// split is what produces the multinode-scatter discount: with the split
// inverted (sender-dominated), the discount collapses.
func BenchmarkAblationGCelOverheadSplit(b *testing.B) {
	for _, cfg := range []struct {
		name         string
		osend, orecv float64
	}{{"receiver-heavy", 470, 4060}, {"sender-heavy", 4060, 470}} {
		p := mesh.DefaultParams()
		p.OSend, p.ORecv = cfg.osend, cfg.orecv
		r, err := mesh.New(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			var ratio float64
			base := sim.NewRNG(9)
			for i := 0; i < b.N; i++ {
				sw := calibrate.Fixed(r)
				sc, err := sw.Measure(func(r comm.Router, rng *sim.RNG) *comm.Step {
					return calibrate.MultinodeScatter(r.Procs(), 8, 32, 4, rng)
				}, 2, base.Split(1))
				if err != nil {
					b.Fatal(err)
				}
				fr, err := sw.Measure(func(r comm.Router, rng *sim.RNG) *comm.Step {
					return calibrate.FullHRelation(r.Procs(), 32, 4, rng)
				}, 2, base.Split(2))
				if err != nil {
					b.Fatal(err)
				}
				ratio = fr.Mean / sc.Mean
			}
			b.ReportMetric(ratio, "scatter-discount")
		})
	}
}

// BenchmarkAblationMasParWaves contrasts the wave-based word router against
// a hypothetical conflict-free router (TByte-only waves) on random
// permutations: the gap is what the greedy circuit conflicts cost, i.e.
// the cube-permutation discount of Figs 5/10.
func BenchmarkAblationMasParWaves(b *testing.B) {
	r, err := maspar.New(maspar.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(3)
	random := calibrate.RandomPermutation(r.Procs(), 4, rng)
	cube := calibrate.CubePermutation(r.Procs(), 8, 4)
	b.Run("random", func(b *testing.B) {
		var simT float64
		for i := 0; i < b.N; i++ {
			simT = r.Route(random, rng).Elapsed
		}
		b.ReportMetric(simT, "sim-us")
	})
	b.Run("cube", func(b *testing.B) {
		var simT float64
		for i := 0; i < b.N; i++ {
			simT = r.Route(cube, rng).Elapsed
		}
		b.ReportMetric(simT, "sim-us")
	})
}

// --- sweep-engine benchmarks ---

// BenchmarkParallelSweep runs the Fig 1 calibration grid (the tentpole
// workload of the parsweep engine) serially and with four workers. The two
// produce byte-identical fits; the ratio of their wall clocks is the
// speedup. On a single-core host the j4 case degenerates to serial
// throughput plus scheduling noise.
func BenchmarkParallelSweep(b *testing.B) {
	hs := []int{1, 2, 4, 8, 16, 32}
	const trials = 8
	factory := func() (comm.Router, error) { return maspar.New(maspar.DefaultParams()) }
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			sw := calibrate.Sweeper{Workers: workers, New: factory}
			for i := 0; i < b.N; i++ {
				if _, _, err := sw.FitGL(calibrate.StyleOneToH, hs, 4, trials, sim.NewRNG(1996)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSuperstep measures the raw engine overhead: a program
// doing nothing but 10 barriers, at P = 64 (cm5) and P = 1024 (maspar).
func BenchmarkEngineSuperstep(b *testing.B) {
	for _, c := range []struct{ name, machine string }{{"p64", "cm5"}, {"p1024", "maspar"}} {
		b.Run(c.name, func(b *testing.B) {
			m, err := machine.Build(c.machine)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, err := bsplib.Run(m, func(ctx *bsplib.Context) {
					for s := 0; s < 10; s++ {
						ctx.Sync()
					}
				}, bsplib.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicAPIQuickstart exercises the facade end to end, the same
// path as examples/quickstart.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	m, err := quantpar.NewMachine("cm5")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := quantpar.RunMatMul(m, quantpar.MatMulConfig{
			N: 64, Q: 4, Variant: quantpar.MatMulBPRAM, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
