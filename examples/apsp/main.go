// APSP example: solve all-pairs shortest path on the simulated MasPar MP-1
// and compare the measured time against the MP-BSP prediction (which
// misprices the unbalanced row/column broadcasts) and the E-BSP prediction
// (which prices them with the measured partial-permutation cost T_unb) -
// the Fig 12 story of the paper.
//
// Run with:
//
//	go run ./examples/apsp
package main

import (
	"fmt"
	"log"

	"quantpar"
	"quantpar/internal/core"
)

func main() {
	m, err := quantpar.NewMachine("maspar")
	if err != nil {
		log.Fatal(err)
	}
	ref, err := quantpar.Reference("maspar")
	if err != nil {
		log.Fatal(err)
	}
	costs := core.AlgoCosts{Alpha: m.Compute.Alpha(), WordBytes: m.WordBytes}
	mpbsp := core.MPBSP{P: m.P(), G: ref.G, L: ref.L}
	ebsp := core.EBSP{MPBSP: mpbsp, Tunb: func(active int) float64 { return ref.Tunb(active) }}

	fmt.Printf("machine: %s (P=%d)\n\n", m.Name, m.P())
	fmt.Printf("%6s %14s %14s %14s\n", "N", "measured(ms)", "MP-BSP(ms)", "E-BSP(ms)")
	for _, n := range []int{64, 128} {
		res, err := quantpar.RunAPSP(m, quantpar.APSPConfig{N: n, Seed: 9, Verify: true})
		if err != nil {
			log.Fatal(err)
		}
		if res.MaxErr > 1e-3 {
			log.Fatalf("verification failed: max err %g", res.MaxErr)
		}
		pm, err := core.PredictAPSPMPBSP(mpbsp, costs, n)
		if err != nil {
			log.Fatal(err)
		}
		pe, err := core.PredictAPSPEBSP(ebsp, costs, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %14.1f %14.1f %14.1f\n", n, res.Run.Time/1000, pm/1000, pe/1000)
	}
	fmt.Println("\nMP-BSP charges every broadcast superstep as a full relation and")
	fmt.Println("overestimates heavily; E-BSP prices the sqrt(P)-sender scatter with")
	fmt.Println("T_unb and lands much closer (Section 4.4.1 / Fig 12).")
}
