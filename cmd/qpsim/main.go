// Command qpsim is the free-form runner: execute one algorithm on one
// simulated machine and print the simulated timing, the model prediction,
// and verification status. It is the quickest way to poke at a single
// machine/algorithm/size combination.
//
// Usage examples:
//
//	qpsim -machine cm5 -algo matmul -n 256 -variant staggered
//	qpsim -machine gcel -algo bitonic -keys 2048 -variant block
//	qpsim -machine maspar -algo apsp -n 128
//	qpsim -machine gcel -algo samplesort -keys 2048 -variant staggered
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"quantpar"
	"quantpar/internal/core"
)

func main() {
	machineName := flag.String("machine", "cm5", "machine: any registered name (maspar, gcel, cm5, cluster, ...)")
	algo := flag.String("algo", "matmul", "algorithm: matmul, bitonic, samplesort, apsp")
	n := flag.Int("n", 256, "problem dimension (matmul/apsp)")
	keys := flag.Int("keys", 1024, "keys per processor (sorting)")
	variant := flag.String("variant", "", "algorithm variant: matmul staggered|unstaggered|bpram, bitonic word|block|bpram, samplesort padded|staggered")
	q := flag.Int("q", 0, "matmul cube side (default: machine-dependent)")
	seed := flag.Uint64("seed", 42, "RNG seed")
	verify := flag.Bool("verify", true, "verify against a sequential reference")
	showTrace := flag.Bool("trace", false, "print the superstep timeline after the run")
	flag.Parse()

	if err := run(*machineName, *algo, *n, *keys, *variant, *q, *seed, *verify, *showTrace); err != nil {
		fmt.Fprintln(os.Stderr, "qpsim:", err)
		os.Exit(1)
	}
}

func buildMachine(name string) (*quantpar.Machine, error) {
	m, err := quantpar.NewMachine(name)
	if err != nil {
		return nil, fmt.Errorf("unknown machine %q (registered: %s)", name, strings.Join(quantpar.Machines(), ", "))
	}
	return m, nil
}

func run(machineName, algo string, n, keys int, variant string, q int, seed uint64, verify, showTrace bool) error {
	m, err := buildMachine(machineName)
	if err != nil {
		return err
	}
	var rec *quantpar.Trace
	if showTrace {
		rec = quantpar.NewTrace()
	}
	defer func() {
		if rec != nil && rec.Len() > 0 {
			fmt.Println("\nsuperstep timeline:")
			rec.Render(os.Stdout)
		}
	}()
	switch algo {
	case "matmul":
		if q == 0 {
			if machineName == "maspar" {
				q = 8
			} else {
				q = 4
			}
		}
		v := quantpar.MatMulBSPStaggered
		switch variant {
		case "", "staggered":
		case "unstaggered":
			v = quantpar.MatMulBSPUnstaggered
		case "bpram", "block":
			v = quantpar.MatMulBPRAM
		default:
			return fmt.Errorf("matmul variant %q (want staggered, unstaggered, bpram)", variant)
		}
		res, err := quantpar.RunMatMul(m, quantpar.MatMulConfig{N: n, Q: q, Variant: v, Seed: seed, Verify: verify, Trace: rec})
		if err != nil {
			return err
		}
		fmt.Printf("%s matmul %v N=%d q=%d: %.2f simulated ms, %.1f Mflops", m.Name, v, n, q, res.Run.Time/1000, res.Mflops)
		if verify {
			fmt.Printf(", max err %.3g", res.MaxErr)
		}
		fmt.Printf(" (supersteps %d, comm steps %d)\n", res.Run.Supersteps, res.Run.CommSteps)
	case "bitonic":
		v := quantpar.BitonicWord
		switch variant {
		case "", "word":
		case "block", "bpram":
			v = quantpar.BitonicBlock
		default:
			return fmt.Errorf("bitonic variant %q (want word, block, bpram)", variant)
		}
		res, err := quantpar.RunBitonic(m, quantpar.BitonicConfig{KeysPerProc: keys, Variant: v, Seed: seed, Verify: verify, Trace: rec})
		if err != nil {
			return err
		}
		fmt.Printf("%s bitonic %v M=%d: %.2f simulated ms, %.1f us/key", m.Name, v, keys, res.Run.Time/1000, res.TimePerKey)
		if verify {
			fmt.Printf(", sorted=%v", res.Sorted)
		}
		fmt.Println()
	case "samplesort":
		v := quantpar.SampleSortPadded
		switch variant {
		case "", "padded":
		case "staggered":
			v = quantpar.SampleSortStaggered
		default:
			return fmt.Errorf("samplesort variant %q (want padded, staggered)", variant)
		}
		res, err := quantpar.RunSampleSort(m, quantpar.SampleSortConfig{
			KeysPerProc: keys, Oversample: 32, Variant: v, Seed: seed, Verify: verify, Trace: rec})
		if err != nil {
			return err
		}
		fmt.Printf("%s samplesort %v M=%d: %.2f simulated ms, %.1f us/key, max bucket %d",
			m.Name, v, keys, res.Run.Time/1000, res.TimePerKey, res.MaxBucket)
		if verify {
			fmt.Printf(", sorted=%v", res.Sorted)
		}
		fmt.Println()
	case "apsp":
		if variant != "" {
			return fmt.Errorf("apsp variant %q (apsp has no variants)", variant)
		}
		res, err := quantpar.RunAPSP(m, quantpar.APSPConfig{N: n, Seed: seed, Verify: verify, Trace: rec})
		if err != nil {
			return err
		}
		fmt.Printf("%s apsp N=%d: %.2f simulated ms", m.Name, n, res.Run.Time/1000)
		if verify {
			fmt.Printf(", max err %.3g", res.MaxErr)
		}
		fmt.Println()
		if ref, err := quantpar.Reference(machineName); err == nil {
			costs := core.AlgoCosts{Alpha: m.Compute.Alpha(), WordBytes: m.WordBytes}
			if pred, err := core.PredictAPSPBSP(core.BSP{P: m.P(), G: ref.G, L: ref.L}, costs, n); err == nil {
				fmt.Printf("  BSP prediction: %.2f ms\n", pred/1000)
			}
		}
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}
