package experiments

import (
	"quantpar/internal/algorithms/bitonic"
	"quantpar/internal/core"
	"quantpar/internal/machine"
)

func init() {
	register("concl1", "Conclusions: fixed-size messages larger than one word", runConcl1)
}

// runConcl1 reproduces the message-granularity claim of the paper's
// conclusions: on machines with fine-grain communication, most of the
// block-transfer advantage is already captured by fixed-size messages of a
// few words ("larger than one computational word"). The paper quantifies
// it as the MasPar's block advantage dropping from 3.3x to 1.37x with
// 16-byte messages. We sweep bitonic sort's exchange granularity on the
// MasPar from one word to whole blocks.
func runConcl1(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "concl1", Title: "message granularity sweep on the MasPar"}
	mm := 64
	if ctx.Scale == Full {
		mm = 256
	}

	cfgs := []bitonic.Config{
		{KeysPerProc: mm, Variant: bitonic.Word, Seed: ctx.Seed},                  // 1 word (MP-BSP)
		{KeysPerProc: mm, Variant: bitonic.Word, WordsPerMsg: 4, Seed: ctx.Seed},  // 16 bytes
		{KeysPerProc: mm, Variant: bitonic.Word, WordsPerMsg: 16, Seed: ctx.Seed}, // 64 bytes
		{KeysPerProc: mm, Variant: bitonic.Block, Seed: ctx.Seed},                 // whole run (MP-BPRAM)
	}
	s := core.Series{Name: "bitonic time/key by message granularity (measured vs block baseline)", XLabel: "words/msg"}
	idxs := make([]int, len(cfgs))
	for i := range idxs {
		idxs[i] = i
	}
	times, err := sweepGrid(ctx, newMasPar, idxs, 1, func(m *machine.Machine, i, _ int) (float64, error) {
		res, err := bitonic.Run(m, cfgs[i])
		if err != nil {
			return 0, err
		}
		return res.TimePerKey, nil
	})
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		x := float64(cfg.WordsPerMsg)
		if cfg.WordsPerMsg == 0 {
			x = 1
		}
		if cfg.Variant == bitonic.Block {
			x = float64(mm)
		}
		s.Xs = append(s.Xs, x)
		s.Measured = append(s.Measured, times[i])
	}
	block := times[len(times)-1]
	for range times {
		s.Predicted = append(s.Predicted, block)
	}
	out.Series = append(out.Series, s)

	wordRatio := times[0] / block
	r16 := times[1] / block
	out.extra("advantage of blocks over 1-word messages: %.2fx; over 16-byte messages: %.2fx (paper: 3.3 -> 1.37)",
		wordRatio, r16)
	out.check("granularity sweep is monotone", times[0] > times[1] && times[1] > times[2] && times[2] >= block*0.95,
		"times/key %.0f > %.0f > %.0f >= %.0f", times[0], times[1], times[2], block)
	out.check("one-word messages pay the full penalty", wordRatio > 1.5,
		"1-word/block ratio %.2fx (paper ~3.3x ceiling)", wordRatio)
	// The recovery is judged on the gap above the block baseline: 16-byte
	// messages must close a real share of it and land near the paper's
	// 1.37x residual.
	closed := (wordRatio - r16) / (wordRatio - 1)
	out.check("16-byte messages recover a large share of the gap", closed > 0.25 && r16 < 2.2,
		"16-byte/block ratio %.2fx, closing %.0f%% of the 1-word gap (paper residual 1.37x)", r16, 100*closed)
	return out, nil
}
