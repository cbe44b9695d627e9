package experiments

import (
	"quantpar/internal/calibrate"
	"quantpar/internal/comm"
	"quantpar/internal/core"
	"quantpar/internal/sim"
)

func init() {
	register("table1", "Table 1: machine parameters g, L, sigma, ell", runTable1)
	register("fig01", "Fig 1: 1-h relations on the MasPar", runFig01)
	register("fig02", "Fig 2: partial permutations on the MasPar", runFig02)
	register("fig07", "Fig 7: h-h permutations vs h-relations on the GCel", runFig07)
	register("fig14", "Fig 14: multinode scatter vs full h-relations on the GCel", runFig14)
}

// paperTable1 holds the values the paper reports, for shape comparison.
var paperTable1 = map[string][4]float64{
	"maspar": {32.2, 1400, 107, 630},
	"gcel":   {4480, 5100, 9.3, 6900},
	"cm5":    {9.1, 45, 0.27, 75},
}

func runTable1(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "table1", Title: "machine parameter calibration"}
	base := sim.NewRNG(ctx.Seed)
	trials := ctx.trials(6, 25)

	type row struct {
		key  string
		mk   machineFactory
		spec calibrate.Spec
	}
	rows := []row{
		{"maspar", newMasPar, calibrate.Spec{
			Style: calibrate.StyleOneToH, Hs: []int{1, 2, 4, 8, 16, 24, 32},
			Sizes: []int{8, 16, 32, 64, 128, 256, 512}, WordBytes: 4, Trials: trials}},
		{"gcel", newGCel, calibrate.Spec{
			Style: calibrate.StyleFullH, Hs: []int{1, 2, 3, 4, 6, 8},
			Sizes: []int{16, 64, 256, 1024, 4096, 16384}, WordBytes: 4, Trials: trials}},
		{"cm5", newCM5, calibrate.Spec{
			Style: calibrate.StyleFullH, Hs: []int{1, 2, 4, 8, 16, 32},
			Sizes: []int{16, 64, 256, 1024, 4096, 16384}, WordBytes: 8, Trials: trials}},
	}
	for i, rw := range rows {
		p, err := ctx.sweeper(rw.mk).Extract(rw.spec, base.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		paper := paperTable1[rw.key]
		out.Series = append(out.Series, core.Series{
			Name:      rw.key + " parameters (measured vs paper)",
			XLabel:    "param#",
			Xs:        []float64{0, 1, 2, 3},
			Measured:  []float64{p.G, p.L, p.Sigma, p.Ell},
			Predicted: []float64{paper[0], paper[1], paper[2], paper[3]},
		})
		// The MasPar's g is fitted from 1-h relations whose trial-to-trial
		// spread is itself a finding (Fig 1), so its band is the widest.
		out.check(rw.key+" g", within((p.G-paper[0])/paper[0], 0.50),
			"g=%.1f vs paper %.1f", p.G, paper[0])
		out.check(rw.key+" L", within((p.L-paper[1])/paper[1], 0.45),
			"L=%.0f vs paper %.0f", p.L, paper[1])
		out.check(rw.key+" sigma", within((p.Sigma-paper[2])/paper[2], 0.40),
			"sigma=%.2f vs paper %.2f", p.Sigma, paper[2])
		out.check(rw.key+" ell", within((p.Ell-paper[3])/paper[3], 0.50),
			"ell=%.0f vs paper %.0f", p.Ell, paper[3])
		out.extra("%s: %s", rw.key, p)
	}
	return out, nil
}

func runFig01(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig01", Title: "1-h relation time on the MasPar"}
	hs := ctx.sweep([]int{1, 2, 4, 8, 16, 32}, []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64})
	line, pts, err := ctx.sweeper(newMasPar).FitGL(calibrate.StyleOneToH, hs, 4, ctx.trials(8, 100), sim.NewRNG(ctx.Seed^1))
	if err != nil {
		return nil, err
	}
	s := core.Series{Name: "1-h relation (measured vs fitted line)", XLabel: "h"}
	spreadGrows := pts[len(pts)-1].Max-pts[len(pts)-1].Min >= pts[0].Max-pts[0].Min
	for _, p := range pts {
		s.Xs = append(s.Xs, p.X)
		s.Measured = append(s.Measured, p.Mean)
		s.Predicted = append(s.Predicted, line.Eval(p.X))
	}
	out.Series = append(out.Series, s)
	out.extra("fit: %s", line)
	out.check("slope near paper g", line.Slope > 18 && line.Slope < 60, "slope %.1f (paper 32.2)", line.Slope)
	out.check("offset near paper L", line.Intercept > 800 && line.Intercept < 2000, "offset %.0f (paper 1400)", line.Intercept)
	out.check("behaviour not exactly linear but close", line.R2 > 0.90, "R^2=%.4f", line.R2)
	out.check("variance grows with cluster collisions", spreadGrows,
		"spread at h=%v: %.0f vs h=%v: %.0f", pts[len(pts)-1].X, pts[len(pts)-1].Max-pts[len(pts)-1].Min, pts[0].X, pts[0].Max-pts[0].Min)
	return out, nil
}

func runFig02(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig02", Title: "partial permutations on the MasPar"}
	actives := ctx.sweep(
		[]int{2, 8, 32, 128, 512, 1024},
		[]int{2, 4, 8, 16, 32, 64, 128, 256, 384, 512, 768, 1024})
	sq, pts, err := ctx.sweeper(newMasPar).FitTunb(actives, 4, ctx.trials(8, 100), sim.NewRNG(ctx.Seed^2))
	if err != nil {
		return nil, err
	}
	s := core.Series{Name: "partial permutation (measured vs T_unb fit)", XLabel: "P'"}
	var t32, t1024 float64
	for _, p := range pts {
		s.Xs = append(s.Xs, p.X)
		s.Measured = append(s.Measured, p.Mean)
		s.Predicted = append(s.Predicted, sq.Eval(p.X))
		if p.X == 32 {
			t32 = p.Mean
		}
		if p.X == 1024 {
			t1024 = p.Mean
		}
	}
	out.Series = append(out.Series, s)
	out.extra("fit: %s (paper: 0.84x + 11.8*sqrt(x) + 73.3)", sq)
	out.check("strong dependence on active PEs", t32 < 0.30*t1024,
		"T(32)=%.0f is %.0f%% of T(1024)=%.0f (paper ~13%%)", t32, 100*t32/t1024, t1024)
	out.check("sqrt-quadratic fits well", sq.R2 > 0.98, "R^2=%.4f", sq.R2)
	out.check("linear coefficient near paper", sq.A > 0.4 && sq.A < 1.4, "A=%.2f (paper 0.84)", sq.A)
	return out, nil
}

func runFig07(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig07", Title: "h-h permutations on the GCel"}
	sw := ctx.sweeper(newGCel)
	hs := ctx.sweep([]int{64, 256, 384, 512}, []int{32, 64, 128, 192, 256, 320, 384, 448, 512, 640})
	trials := ctx.trials(4, 20)
	base := sim.NewRNG(ctx.Seed ^ 3)

	unsync := core.Series{Name: "h-h permutations unsynchronized vs sync-256 (per message)", XLabel: "h"}
	var perMsgSmall, perMsgLarge, syncLarge float64
	for i, h := range hs {
		un, err := sw.MeasureSteps(func(r comm.Router, rng *sim.RNG) []*comm.Step {
			return calibrate.HHPermutation(r.Procs(), h, 4, 0, rng)
		}, trials, base.Split(uint64(10+i)))
		if err != nil {
			return nil, err
		}
		sy, err := sw.MeasureSteps(func(r comm.Router, rng *sim.RNG) []*comm.Step {
			return calibrate.HHPermutation(r.Procs(), h, 4, 256, rng)
		}, trials, base.Split(uint64(100+i)))
		if err != nil {
			return nil, err
		}
		unsync.Xs = append(unsync.Xs, float64(h))
		unsync.Measured = append(unsync.Measured, un.Mean/float64(h))
		unsync.Predicted = append(unsync.Predicted, sy.Mean/float64(h))
		if h <= 256 {
			perMsgSmall = un.Mean / float64(h)
		}
		if h == hs[len(hs)-1] {
			perMsgLarge = un.Mean / float64(h)
			syncLarge = sy.Mean / float64(h)
		}
	}
	out.Series = append(out.Series, unsync)
	out.check("blow-up past h~300 without barriers", perMsgLarge > 1.02*perMsgSmall,
		"per-message %.0f at large h vs %.0f below threshold", perMsgLarge, perMsgSmall)
	out.check("barrier every 256 messages removes the drop", syncLarge < 1.02*perMsgSmall,
		"sync-256 per-message %.0f vs pre-threshold %.0f", syncLarge, perMsgSmall)
	return out, nil
}

func runFig14(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "fig14", Title: "multinode scatter vs full h-relations on the GCel"}
	sw := ctx.sweeper(newGCel)
	hs := ctx.sweep([]int{8, 32, 64}, []int{4, 8, 16, 32, 64, 128})
	trials := ctx.trials(4, 20)
	base := sim.NewRNG(ctx.Seed ^ 4)
	s := core.Series{Name: "multinode scatter (measured) vs full h-relation (measured)", XLabel: "h"}
	var lastRatio float64
	for i, h := range hs {
		sc, err := sw.Measure(func(r comm.Router, rng *sim.RNG) *comm.Step {
			return calibrate.MultinodeScatter(r.Procs(), 8, h, 4, rng)
		}, trials, base.Split(uint64(10+i)))
		if err != nil {
			return nil, err
		}
		fr, err := sw.Measure(func(r comm.Router, rng *sim.RNG) *comm.Step {
			return calibrate.FullHRelation(r.Procs(), h, 4, rng)
		}, trials, base.Split(uint64(100+i)))
		if err != nil {
			return nil, err
		}
		s.Xs = append(s.Xs, float64(h))
		s.Measured = append(s.Measured, sc.Mean)
		s.Predicted = append(s.Predicted, fr.Mean)
		lastRatio = fr.Mean / sc.Mean
	}
	out.Series = append(out.Series, s)
	out.extra("ratio at h=%v: %.1f (paper: up to 9.1)", s.Xs[len(s.Xs)-1], lastRatio)
	out.check("scatter much cheaper than full h-relation", lastRatio > 4,
		"ratio %.1f at h=%v", lastRatio, s.Xs[len(s.Xs)-1])
	return out, nil
}
