// Quickstart: multiply two 256x256 matrices on the simulated CM-5, compare
// the staggered and unstaggered BSP schedules and the MP-BPRAM block
// version against the model predictions, and verify the numerical result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"quantpar"
	"quantpar/internal/core"
)

func main() {
	m, err := quantpar.NewMachine("cm5")
	if err != nil {
		log.Fatal(err)
	}
	const (
		n = 256
		q = 4 // 64 processors arranged as a 4x4x4 cube
	)

	ref, err := quantpar.Reference("cm5")
	if err != nil {
		log.Fatal(err)
	}
	costs := core.AlgoCosts{
		Alpha:     m.Compute.Alpha(),
		BetaSum:   m.Compute.OpTime(1),
		WordBytes: m.WordBytes,
	}
	bsp := core.BSP{P: q * q * q, G: ref.G, L: ref.L}
	bpram := core.MPBPRAM{P: q * q * q, Sigma: ref.Sigma, Ell: ref.Ell}

	fmt.Printf("machine: %s (P=%d, g=%.1f us, L=%.0f us)\n\n", m.Name, m.P(), ref.G, ref.L)
	for _, v := range []quantpar.MatMulConfig{
		{N: n, Q: q, Variant: quantpar.MatMulBSPUnstaggered, Seed: 1, Verify: true},
		{N: n, Q: q, Variant: quantpar.MatMulBSPStaggered, Seed: 1, Verify: true},
		{N: n, Q: q, Variant: quantpar.MatMulBPRAM, Seed: 1, Verify: true},
	} {
		res, err := quantpar.RunMatMul(m, v)
		if err != nil {
			log.Fatal(err)
		}
		var pred float64
		if v.Variant == quantpar.MatMulBPRAM {
			pred, err = core.PredictMatMulBPRAM(bpram, costs, n)
		} else {
			pred, err = core.PredictMatMulBSP(bsp, costs, n)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16v measured %7.1f ms   predicted %7.1f ms   %6.1f Mflops   max err %.2g\n",
			v.Variant, res.Run.Time/1000, pred/1000, res.Mflops, res.MaxErr)
	}
	fmt.Println("\nThe unstaggered schedule exceeds its prediction (receiver")
	fmt.Println("contention, Fig 4 of the paper); the staggered one matches it;")
	fmt.Println("the block version is fastest (Fig 16).")
}
