// Sortingduel: race the three sorting implementations of the paper on the
// simulated Parsytec GCel - word-granularity bitonic (with and without the
// 256-message barrier fix), block bitonic, and sample sort (one-port
// padded and staggered) - reproducing the Fig 6/11/18 story: on a machine
// with millisecond message overheads, block transfers are worth two orders
// of magnitude, and the theoretically optimal sample sort loses its edge
// to the one-port routing scheme's padding.
//
// Run with:
//
//	go run ./examples/sortingduel
package main

import (
	"fmt"
	"log"

	"quantpar"
)

func main() {
	m, err := quantpar.NewMachine("gcel")
	if err != nil {
		log.Fatal(err)
	}
	const keys = 1024
	fmt.Printf("machine: %s, %d keys per processor (%d total)\n\n", m.Name, keys, keys*m.P())

	type entry struct {
		name string
		run  func() (float64, bool, error)
	}
	entries := []entry{
		{"bitonic word, unsynchronized", func() (float64, bool, error) {
			r, err := quantpar.RunBitonic(m, quantpar.BitonicConfig{KeysPerProc: keys, Variant: quantpar.BitonicWord, Seed: 2, Verify: true})
			if err != nil {
				return 0, false, err
			}
			return r.TimePerKey, r.Sorted, nil
		}},
		{"bitonic word, barrier every 256", func() (float64, bool, error) {
			r, err := quantpar.RunBitonic(m, quantpar.BitonicConfig{KeysPerProc: keys, Variant: quantpar.BitonicWord, BarrierEvery: 256, Seed: 2, Verify: true})
			if err != nil {
				return 0, false, err
			}
			return r.TimePerKey, r.Sorted, nil
		}},
		{"bitonic block (MP-BPRAM)", func() (float64, bool, error) {
			r, err := quantpar.RunBitonic(m, quantpar.BitonicConfig{KeysPerProc: keys, Variant: quantpar.BitonicBlock, Seed: 2, Verify: true})
			if err != nil {
				return 0, false, err
			}
			return r.TimePerKey, r.Sorted, nil
		}},
		{"sample sort, one-port padded", func() (float64, bool, error) {
			r, err := quantpar.RunSampleSort(m, quantpar.SampleSortConfig{KeysPerProc: keys, Oversample: 32, Variant: quantpar.SampleSortPadded, Seed: 2, Verify: true})
			if err != nil {
				return 0, false, err
			}
			return r.TimePerKey, r.Sorted, nil
		}},
		{"sample sort, staggered packing", func() (float64, bool, error) {
			r, err := quantpar.RunSampleSort(m, quantpar.SampleSortConfig{KeysPerProc: keys, Oversample: 32, Variant: quantpar.SampleSortStaggered, Seed: 2, Verify: true})
			if err != nil {
				return 0, false, err
			}
			return r.TimePerKey, r.Sorted, nil
		}},
	}
	for _, e := range entries {
		tpk, sorted, err := e.run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %10.1f us/key   sorted=%v\n", e.name, tpk, sorted)
	}
}
