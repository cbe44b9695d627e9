package experiments

import (
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/algorithms/samplesort"
	"quantpar/internal/core"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
)

func init() {
	register("fig05", "Fig 5: bitonic sort on the MasPar, measured vs MP-BSP prediction", runFig05)
	register("fig06", "Fig 6: bitonic sort on the GCel, drift and the synchronized fix", runFig06)
	register("fig10", "Fig 10: MP-BPRAM bitonic on the MasPar", runFig10)
	register("fig11", "Fig 11: MP-BPRAM bitonic on the GCel", runFig11)
	register("fig17", "Fig 17: MP-BSP vs MP-BPRAM bitonic on the MasPar", runFig17)
	register("fig18", "Fig 18: bitonic vs sample sort on the GCel", runFig18)
}

// bitonicSeries is one bitonic configuration a sweep compares (a variant
// and its barrier interval) and the name of its series.
type bitonicSeries struct {
	variant      bitonic.Variant
	barrierEvery int
	name         string
}

// bitonicSweep measures time-per-key of every configuration over
// keys-per-processor values, as one grid on worker-private machines, and
// returns one series per configuration against predict's time per key.
func bitonicSweep(ctx *Context, mk machineFactory, mms []int, seed uint64,
	predict func(mm int) sim.Time, configs ...bitonicSeries) ([]core.Series, error) {

	perKey, err := sweepGrid(ctx, mk, mms, len(configs), func(m *machine.Machine, mm, j int) (float64, error) {
		res, err := bitonic.Run(m, bitonic.Config{KeysPerProc: mm, Variant: configs[j].variant,
			BarrierEvery: configs[j].barrierEvery, Seed: seed + uint64(mm)})
		if err != nil {
			return 0, err
		}
		return res.TimePerKey, nil
	})
	if err != nil {
		return nil, err
	}
	series := make([]core.Series, len(configs))
	for j, c := range configs {
		series[j] = core.Series{Name: c.name, XLabel: "keys/proc"}
	}
	return series, splitGrid(series, mms, perKey,
		func(mm int) (float64, error) { return predict(mm) / sim.Time(mm), nil })
}

func runFig05(ctx *Context) (*Outcome, error) {
	m, err := newMasPar()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig05", Title: "bitonic time per key on the MasPar (MP-BSP)"}
	md, err := modelsFor(m, "maspar", m.P())
	if err != nil {
		return nil, err
	}
	mms := ctx.sweep([]int{16, 64}, []int{4, 16, 64, 256, 1024})
	series, err := bitonicSweep(ctx, newMasPar, mms, ctx.Seed,
		func(mm int) sim.Time { return core.PredictBitonicMPBSP(md.mpbsp, md.costs, mm*m.P()) },
		bitonicSeries{bitonic.Word, 0, "bitonic time/key (measured vs MP-BSP prediction)"})
	if err != nil {
		return nil, err
	}
	s := series[0]
	out.Series = append(out.Series, s)
	last := len(s.Xs) - 1
	ratio := s.Predicted[last] / s.Measured[last]
	out.extra("MP-BSP overestimates by a factor %.2f at M=%v (paper: ~2.0)", ratio, s.Xs[last])
	out.check("model overestimates bitonic", s.Bias() == 1, "bias %+d", s.Bias())
	out.check("overestimate is roughly 2x", ratio > 1.4 && ratio < 3.0, "factor %.2f", ratio)
	return out, nil
}

func runFig06(ctx *Context) (*Outcome, error) {
	m, err := newGCel()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig06", Title: "bitonic time per key on the GCel (BSP)"}
	md, err := modelsFor(m, "gcel", m.P())
	if err != nil {
		return nil, err
	}
	predict := func(mm int) sim.Time { return core.PredictBitonicBSP(md.bsp, md.costs, mm*m.P()) }
	mms := ctx.sweep([]int{256, 512}, []int{128, 256, 512, 1024, 2048, 4096})
	series, err := bitonicSweep(ctx, newGCel, mms, ctx.Seed, predict,
		bitonicSeries{bitonic.Word, 0, "bitonic time/key unsynchronized (measured vs BSP prediction)"},
		bitonicSeries{bitonic.Word, 256, "bitonic time/key synchronized every 256 (measured vs BSP prediction)"})
	if err != nil {
		return nil, err
	}
	unsync, synced := series[0], series[1]
	out.Series = append(out.Series, unsync, synced)
	last := len(mms) - 1
	out.check("synchronized version matches the prediction", within(synced.RelErrAt(last), 0.20),
		"rel err %.0f%% at M=%d", 100*synced.RelErrAt(last), mms[last])
	out.check("unsynchronized version costs more than synchronized", unsync.Measured[last] > synced.Measured[last],
		"unsync %.0f vs sync %.0f us/key", unsync.Measured[last], synced.Measured[last])
	return out, nil
}

func runFig10(ctx *Context) (*Outcome, error) {
	m, err := newMasPar()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig10", Title: "MP-BPRAM bitonic time per key on the MasPar"}
	md, err := modelsFor(m, "maspar", m.P())
	if err != nil {
		return nil, err
	}
	mms := ctx.sweep([]int{64, 256}, []int{16, 64, 256, 1024, 4096})
	series, err := bitonicSweep(ctx, newMasPar, mms, ctx.Seed,
		func(mm int) sim.Time { return core.PredictBitonicBPRAM(md.bpram, md.costs, mm*m.P()) },
		bitonicSeries{bitonic.Block, 0, "bitonic time/key (measured vs MP-BPRAM prediction)"})
	if err != nil {
		return nil, err
	}
	s := series[0]
	out.Series = append(out.Series, s)
	last := len(s.Xs) - 1
	ratio := s.Predicted[last] / s.Measured[last]
	out.extra("MP-BPRAM overestimates by %.2fx (paper: significant but milder than MP-BSP)", ratio)
	out.check("model overestimates the cheap cube pattern", ratio > 1.15, "factor %.2f", ratio)
	out.check("overestimate milder than the 2x of MP-BSP", ratio < 2.0, "factor %.2f", ratio)
	return out, nil
}

func runFig11(ctx *Context) (*Outcome, error) {
	m, err := newGCel()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig11", Title: "MP-BPRAM bitonic time per key on the GCel"}
	md, err := modelsFor(m, "gcel", m.P())
	if err != nil {
		return nil, err
	}
	mms := ctx.sweep([]int{512, 2048}, []int{128, 512, 2048, 4096, 8192})
	series, err := bitonicSweep(ctx, newGCel, mms, ctx.Seed,
		func(mm int) sim.Time { return core.PredictBitonicBPRAM(md.bpram, md.costs, mm*m.P()) },
		bitonicSeries{bitonic.Block, 0, "bitonic time/key (measured vs MP-BPRAM prediction)"})
	if err != nil {
		return nil, err
	}
	s := series[0]
	out.Series = append(out.Series, s)
	out.check("estimates nearly coincide with measurements", s.MaxAbsRelErr() < 0.15,
		"max |rel err| %.1f%% (paper: almost coincident)", 100*s.MaxAbsRelErr())
	return out, nil
}

func runFig17(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig17", Title: "MP-BSP vs MP-BPRAM bitonic on the MasPar"}
	mms := ctx.sweep([]int{16, 64}, []int{4, 16, 64, 256, 1024})
	variants := []bitonic.Variant{bitonic.Block, bitonic.Word}
	perKey, err := sweepGrid(ctx, newMasPar, mms, len(variants), func(m *machine.Machine, mm, j int) (float64, error) {
		res, err := bitonic.Run(m, bitonic.Config{KeysPerProc: mm, Variant: variants[j], Seed: ctx.Seed})
		if err != nil {
			return 0, err
		}
		return res.TimePerKey, nil
	})
	if err != nil {
		return nil, err
	}
	s := core.Series{Name: "bitonic time/key: MP-BPRAM (measured) vs MP-BSP (measured)", XLabel: "keys/proc"}
	for i, mm := range mms {
		s.Xs = append(s.Xs, float64(mm))
		s.Measured = append(s.Measured, perKey[2*i])
		s.Predicted = append(s.Predicted, perKey[2*i+1])
	}
	out.Series = append(out.Series, s)
	last := len(mms) - 1
	gain := s.Predicted[last] / s.Measured[last]
	ref, _ := machine.Reference("maspar")
	ceiling := (ref.G + ref.L) / (4 * ref.Sigma)
	out.extra("block-transfer gain %.2fx at M=%d (paper: ~2.1x of ceiling 3.3x; ours ceiling %.1fx)", gain, mms[last], ceiling)
	out.check("blocks beat word steps", gain > 1.3, "gain %.2fx", gain)
	out.check("gain below the (g+L)/(w*sigma) ceiling", gain < ceiling, "gain %.2fx vs ceiling %.2fx", gain, ceiling)
	return out, nil
}

func runFig18(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig18", Title: "bitonic vs sample sort on the GCel (MP-BPRAM)"}
	// The sweep stops at 4096 keys/processor, the paper's plotted range:
	// beyond it the send phase's 16*sigma*w*M term overtakes bitonic's
	// 21*sigma*w*M and sample sort finally wins - a crossover the paper's
	// own cost expressions imply but its figure does not reach.
	mms := ctx.sweep([]int{1024}, []int{512, 1024, 2048, 4096})
	// Run 0 is bitonic sort; runs 1 and 2 are the padded and staggered
	// sample sorts.
	sorts := []samplesort.Variant{samplesort.Padded, samplesort.Staggered}
	perKey, err := sweepGrid(ctx, newGCel, mms, 1+len(sorts), func(m *machine.Machine, mm, j int) (float64, error) {
		if j == 0 {
			res, err := bitonic.Run(m, bitonic.Config{KeysPerProc: mm, Variant: bitonic.Block, Seed: ctx.Seed})
			if err != nil {
				return 0, err
			}
			return res.TimePerKey, nil
		}
		res, err := samplesort.Run(m, samplesort.Config{KeysPerProc: mm, Oversample: 32, Variant: sorts[j-1], Seed: ctx.Seed})
		if err != nil {
			return 0, err
		}
		return res.TimePerKey, nil
	})
	if err != nil {
		return nil, err
	}
	bitVs := core.Series{Name: "time/key: padded sample sort (measured) vs bitonic (measured)", XLabel: "keys/proc"}
	stag := core.Series{Name: "time/key: staggered sample sort (measured) vs padded (measured)", XLabel: "keys/proc"}
	for i, mm := range mms {
		bitonicT, padded, staggered := perKey[3*i], perKey[3*i+1], perKey[3*i+2]
		bitVs.Xs = append(bitVs.Xs, float64(mm))
		bitVs.Measured = append(bitVs.Measured, padded)
		bitVs.Predicted = append(bitVs.Predicted, bitonicT)
		stag.Xs = append(stag.Xs, float64(mm))
		stag.Measured = append(stag.Measured, staggered)
		stag.Predicted = append(stag.Predicted, padded)
	}
	out.Series = append(out.Series, bitVs, stag)
	// Anchor the comparisons mid-sweep (the paper discusses 4K keys and
	// below; at the largest sizes the fixed costs that hold sample sort
	// back have amortized away).
	anchor := 0
	for i, mm := range mms {
		if mm <= 2048 {
			anchor = i
		}
	}
	out.check("sample sort does not outperform bitonic", bitVs.Measured[anchor] > 0.9*bitVs.Predicted[anchor],
		"padded %.0f vs bitonic %.0f us/key at M=%d", bitVs.Measured[anchor], bitVs.Predicted[anchor], mms[anchor])
	speedup := stag.Predicted[anchor] / stag.Measured[anchor]
	out.check("staggered packing gains about 2x", speedup > 1.4 && speedup < 4.0,
		"staggered speedup %.2fx at M=%d (paper ~2x)", speedup, mms[anchor])
	return out, nil
}
