package experiments

import (
	"quantpar/internal/algorithms/matmul"
	"quantpar/internal/core"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
	"quantpar/internal/vendorlib"
)

func init() {
	register("fig03", "Fig 3: MP-BSP matmul on the MasPar, measured vs predicted", runFig03)
	register("fig04", "Fig 4: BSP matmul on the CM-5, contention and staggering", runFig04)
	register("fig08", "Fig 8: MP-BPRAM matmul on the MasPar", runFig08)
	register("fig09", "Fig 9: MP-BPRAM matmul on the CM-5", runFig09)
	register("fig16", "Fig 16: BSP vs MP-BPRAM matmul rates on the CM-5", runFig16)
	register("fig19", "Fig 19: model matmuls vs the matmul intrinsic on the MasPar", runFig19)
	register("fig20", "Fig 20: model matmuls vs CMSSL gen_matrix_mult on the CM-5", runFig20)
}

// matmulSeries is one matmul variant a sweep compares and the name of its
// series.
type matmulSeries struct {
	variant matmul.Variant
	name    string
}

// runMatMulSweep measures every variant at every size in ns, as one grid on
// worker-private machines, and returns one series per variant with its
// measured times alongside the given predictor.
func runMatMulSweep(ctx *Context, mk machineFactory, q int, ns []int, seed uint64,
	predict func(n int) (sim.Time, error), variants ...matmulSeries) ([]core.Series, error) {

	times, err := sweepGrid(ctx, mk, ns, len(variants), func(m *machine.Machine, n, j int) (sim.Time, error) {
		res, err := matmul.Run(m, matmul.Config{N: n, Q: q, Variant: variants[j].variant, Seed: seed + uint64(n)})
		if err != nil {
			return 0, err
		}
		return res.Run.Time, nil
	})
	if err != nil {
		return nil, err
	}
	series := make([]core.Series, len(variants))
	for j, v := range variants {
		series[j] = core.Series{Name: v.name, XLabel: "N"}
	}
	return series, splitGrid(series, ns, times, predict)
}

func runFig03(ctx *Context) (*Outcome, error) {
	m, err := newMasPar()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig03", Title: "MP-BSP matmul on the MasPar"}
	const q = 8
	md, err := modelsFor(m, "maspar", q*q*q)
	if err != nil {
		return nil, err
	}
	ns := ctx.sweep([]int{64, 128, 256}, []int{64, 128, 192, 256, 320, 448, 512})
	series, err := runMatMulSweep(ctx, newMasPar, q, ns, ctx.Seed,
		func(n int) (sim.Time, error) { return core.PredictMatMulMPBSP(md.mpbsp, md.costs, n) },
		matmulSeries{matmul.BSPStaggered, "MP-BSP matmul (measured vs predicted)"})
	if err != nil {
		return nil, err
	}
	s := series[0]
	out.Series = append(out.Series, s)
	out.check("prediction within reasonable band", s.MaxAbsRelErr() < 0.45,
		"max |rel err| %.0f%% (paper <14%%)", 100*s.MaxAbsRelErr())
	out.check("model does not underestimate grossly", s.Bias() >= 0 || s.MaxAbsRelErr() < 0.45,
		"bias %+d (regular patterns route cheaper than the fitted g)", s.Bias())
	return out, nil
}

func runFig04(ctx *Context) (*Outcome, error) {
	m, err := newCM5()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig04", Title: "BSP matmul on the CM-5"}
	const q = 4
	md, err := modelsFor(m, "cm5", q*q*q)
	if err != nil {
		return nil, err
	}
	ns := ctx.sweep([]int{64, 128, 256}, []int{32, 64, 128, 256, 512})
	predict := func(n int) (sim.Time, error) { return core.PredictMatMulBSP(md.bsp, md.costs, n) }
	series, err := runMatMulSweep(ctx, newCM5, q, ns, ctx.Seed, predict,
		matmulSeries{matmul.BSPUnstaggered, "BSP matmul unstaggered (measured vs predicted)"},
		matmulSeries{matmul.BSPStaggered, "BSP matmul staggered (measured vs predicted)"})
	if err != nil {
		return nil, err
	}
	unstag, stag := series[0], series[1]
	out.Series = append(out.Series, unstag, stag)
	last := len(ns) - 1
	penalty := unstag.Measured[last]/stag.Measured[last] - 1
	out.extra("receiver-contention penalty at N=%d: %.0f%% (paper ~21%% of total at N=256)", ns[last], 100*penalty)
	out.check("unstaggered slower than staggered", penalty > 0.08, "penalty %.0f%%", 100*penalty)
	out.check("unstaggered exceeds the BSP prediction", unstag.RelErrAt(last) < -0.05,
		"prediction errs by %.0f%% (model too optimistic)", 100*unstag.RelErrAt(last))
	out.check("staggered matches prediction at mid sizes", within(stag.RelErrAt(last), 0.25),
		"rel err %.0f%% at N=%d", 100*stag.RelErrAt(last), ns[last])
	return out, nil
}

func runFig08(ctx *Context) (*Outcome, error) {
	m, err := newMasPar()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig08", Title: "MP-BPRAM matmul on the MasPar"}
	const q = 8
	md, err := modelsFor(m, "maspar", q*q*q)
	if err != nil {
		return nil, err
	}
	ns := ctx.sweep([]int{64, 128, 256}, []int{64, 128, 192, 256, 320, 448, 512})
	series, err := runMatMulSweep(ctx, newMasPar, q, ns, ctx.Seed,
		func(n int) (sim.Time, error) { return core.PredictMatMulBPRAM(md.bpram, md.costs, n) },
		matmulSeries{matmul.BPRAM, "MP-BPRAM matmul (measured vs predicted)"})
	if err != nil {
		return nil, err
	}
	s := series[0]
	out.Series = append(out.Series, s)
	// The staggered block permutations of the matmul establish circuits
	// with fewer conflicts than the random permutations sigma was fitted
	// on, so the model overestimates mildly here where the paper saw <3%.
	out.check("good approximation", s.MaxAbsRelErr() < 0.25,
		"max |rel err| %.1f%% (paper <3%%)", 100*s.MaxAbsRelErr())
	return out, nil
}

func runFig09(ctx *Context) (*Outcome, error) {
	m, err := newCM5()
	if err != nil {
		return nil, err
	}
	out := &Outcome{ID: "fig09", Title: "MP-BPRAM matmul on the CM-5"}
	const q = 4
	md, err := modelsFor(m, "cm5", q*q*q)
	if err != nil {
		return nil, err
	}
	ns := ctx.sweep([]int{32, 128, 256}, []int{32, 64, 128, 256, 512})
	series, err := runMatMulSweep(ctx, newCM5, q, ns, ctx.Seed,
		func(n int) (sim.Time, error) { return core.PredictMatMulBPRAM(md.bpram, md.costs, n) },
		matmulSeries{matmul.BPRAM, "MP-BPRAM matmul (measured vs predicted)"})
	if err != nil {
		return nil, err
	}
	s := series[0]
	out.Series = append(out.Series, s)
	// Mid-range accuracy; small N errs through the local-compute model.
	mid := len(s.Xs) - 1
	out.check("accurate at mid sizes", within(s.RelErrAt(mid), 0.20),
		"rel err %.0f%% at N=%.0f", 100*s.RelErrAt(mid), s.Xs[mid])
	out.check("small N suffers local-computation error", s.RelErrAt(0) < 0,
		"rel err %.0f%% at N=%.0f (measured above prediction: loop overheads)", 100*s.RelErrAt(0), s.Xs[0])
	return out, nil
}

func runFig16(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig16", Title: "BSP vs MP-BPRAM matmul rates on the CM-5"}
	const q = 4
	ns := ctx.sweep([]int{128, 256}, []int{64, 128, 256, 512})
	variants := []matmul.Variant{matmul.BPRAM, matmul.BSPStaggered}
	rates, err := sweepGrid(ctx, newCM5, ns, len(variants), func(m *machine.Machine, n, j int) (float64, error) {
		res, err := matmul.Run(m, matmul.Config{N: n, Q: q, Variant: variants[j], Seed: ctx.Seed})
		if err != nil {
			return 0, err
		}
		return res.Mflops, nil
	})
	if err != nil {
		return nil, err
	}
	s := core.Series{Name: "Mflops: MP-BPRAM (measured) vs staggered BSP (measured)", XLabel: "N"}
	for i, n := range ns {
		s.Xs = append(s.Xs, float64(n))
		s.Measured = append(s.Measured, rates[2*i])
		s.Predicted = append(s.Predicted, rates[2*i+1])
	}
	out.Series = append(out.Series, s)
	last := len(ns) - 1
	gain := s.Measured[last]/s.Predicted[last] - 1
	out.extra("block-transfer gain at N=%d: %.0f%% (paper: 43%% at N=512; ceiling g/(w*sigma)=4.2)", ns[last], 100*gain)
	out.check("long messages win", gain > 0.15, "gain %.0f%%", 100*gain)
	out.check("gain below the g/(w*sigma) ceiling", gain < 3.4, "gain %.2fx vs ceiling 4.2x", 1+gain)
	return out, nil
}

func runFig19(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig19", Title: "model matmuls vs the matmul intrinsic on the MasPar"}
	const q = 10 // 1000 of 1024 PEs: the paper's N=700 runs need q^2 | N
	ns := ctx.sweep([]int{200, 400}, []int{100, 200, 300, 400, 500, 600, 700})
	type rates struct{ model, intrinsic float64 }
	pts, err := sweepGrid(ctx, newMasPar, ns, 1, func(m *machine.Machine, n, _ int) (rates, error) {
		rb, err := matmul.Run(m, matmul.Config{N: n, Q: q, Variant: matmul.BPRAM, Seed: ctx.Seed})
		if err != nil {
			return rates{}, err
		}
		ti, err := vendorlib.MasParMatMulTime(m.P(), m.XNet, n)
		if err != nil {
			return rates{}, err
		}
		return rates{model: rb.Mflops, intrinsic: vendorlib.Mflops(n, ti)}, nil
	})
	if err != nil {
		return nil, err
	}
	s := core.Series{Name: "Mflops: MP-BPRAM (measured) vs matmul intrinsic (model)", XLabel: "N"}
	for i, n := range ns {
		s.Xs = append(s.Xs, float64(n))
		s.Measured = append(s.Measured, pts[i].model)
		s.Predicted = append(s.Predicted, pts[i].intrinsic)
	}
	out.Series = append(out.Series, s)
	last := len(ns) - 1
	ratio := s.Measured[last] / s.Predicted[last]
	out.extra("model-derived rate is %.0f%% of the intrinsic's at N=%d (paper: 65%% at N=700)", 100*ratio, ns[last])
	out.check("intrinsic is faster everywhere", func() bool {
		for i := range s.Xs {
			if s.Measured[i] >= s.Predicted[i] {
				return false
			}
		}
		return true
	}(), "model %.1f vs intrinsic %.1f Mflops at N=%d", s.Measured[last], s.Predicted[last], ns[last])
	out.check("penalty is acceptable", ratio > 0.45, "ratio %.2f (paper 0.65)", ratio)
	return out, nil
}

func runFig20(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig20", Title: "model matmuls vs CMSSL gen_matrix_mult on the CM-5"}
	const q = 4
	ns := ctx.sweep([]int{128, 256}, []int{64, 128, 256, 512})
	cfg := vendorlib.DefaultCMSSL()
	type rates struct{ model, cmssl float64 }
	pts, err := sweepGrid(ctx, newCM5, ns, 1, func(m *machine.Machine, n, _ int) (rates, error) {
		rb, err := matmul.Run(m, matmul.Config{N: n, Q: q, Variant: matmul.BPRAM, Seed: ctx.Seed})
		if err != nil {
			return rates{}, err
		}
		tc, err := vendorlib.CMSSLGenMatrixMultTime(cfg, n)
		if err != nil {
			return rates{}, err
		}
		return rates{model: rb.Mflops, cmssl: vendorlib.Mflops(n, tc)}, nil
	})
	if err != nil {
		return nil, err
	}
	s := core.Series{Name: "Mflops: MP-BPRAM (measured) vs gen_matrix_mult (model)", XLabel: "N"}
	for i, n := range ns {
		s.Xs = append(s.Xs, float64(n))
		s.Measured = append(s.Measured, pts[i].model)
		s.Predicted = append(s.Predicted, pts[i].cmssl)
	}
	out.Series = append(out.Series, s)
	last := len(ns) - 1
	tvu, err := vendorlib.CMSSLGenMatrixMultTime(vendorlib.CMSSLConfig{Procs: 64, VectorUnits: true}, ns[last])
	if err != nil {
		return nil, err
	}
	out.extra("with vector units gen_matrix_mult reaches %.0f Mflops at N=%d (paper: 1016 at N=512)",
		vendorlib.Mflops(ns[last], tvu), ns[last])
	out.check("model versions beat the library", s.Measured[last] > s.Predicted[last],
		"model %.0f vs CMSSL %.0f Mflops at N=%d (paper: 366 vs <=151)", s.Measured[last], s.Predicted[last], ns[last])
	out.check("library caps out early", s.Predicted[last] < 200, "CMSSL %.0f Mflops", s.Predicted[last])
	return out, nil
}
