// Package calibrate implements the microbenchmarks of Section 3 of the
// paper: it drives a machine's router with the same synthetic communication
// patterns the authors used (random h-relations, partial and full
// permutations, h-h permutations, block permutations, multinode scatters)
// and extracts the model parameters g, L, sigma, ell and T_unb by the same
// least-squares fits. Running calibration against the simulators is how
// this reproduction fills in Table 1.
package calibrate

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// sendLists returns p send lists of n messages each, carved from one
// backing array and capacity-capped so that no list can grow into the
// next. The patterns fill them by index.
func sendLists(p, n int) [][]comm.Msg {
	backing := make([]comm.Msg, p*n)
	lists := make([][]comm.Msg, p)
	for src := range lists {
		lists[src] = backing[src*n : (src+1)*n : (src+1)*n]
	}
	return lists
}

// RandomPermutation builds a full permutation step: every processor sends
// one message of the given size to a distinct random destination.
func RandomPermutation(p, bytes int, rng *sim.RNG) *comm.Step {
	perm := rng.Perm(p)
	step := &comm.Step{Sends: sendLists(p, 1), Barrier: true}
	for src := 0; src < p; src++ {
		step.Sends[src][0] = comm.Msg{Src: src, Dst: perm[src], Bytes: bytes}
	}
	return step
}

// PartialPermutation builds a permutation step with only active
// participating processors: active random senders send one message each to
// active distinct random recipients (the Fig 2 experiment).
func PartialPermutation(p, active, bytes int, rng *sim.RNG) *comm.Step {
	if active < 1 || active > p {
		panic(fmt.Sprintf("calibrate: %d active of %d processors", active, p))
	}
	senders := rng.Sample(p, active)
	receivers := rng.Sample(p, active)
	step := &comm.Step{Sends: make([][]comm.Msg, p), Barrier: true}
	for i, s := range senders {
		step.Sends[s] = []comm.Msg{{Src: s, Dst: receivers[i], Bytes: bytes}}
	}
	return step
}

// OneToHRelation builds the MasPar Fig 1 pattern: ceil(p/h) random
// destinations; every processor sends one message; floor(p/h) destinations
// receive h messages each and the remaining destination (if any) receives
// the rest. Each processor sends at most one message (a 1-h relation).
func OneToHRelation(p, h, bytes int, rng *sim.RNG) *comm.Step {
	if h < 1 || h > p {
		panic(fmt.Sprintf("calibrate: h=%d out of range for p=%d", h, p))
	}
	numDst := (p + h - 1) / h
	dsts := rng.Sample(p, numDst)
	order := rng.Perm(p)
	step := &comm.Step{Sends: sendLists(p, 1), Barrier: true}
	for i, src := range order {
		step.Sends[src][0] = comm.Msg{Src: src, Dst: dsts[i/h], Bytes: bytes}
	}
	return step
}

// FullHRelation builds a random full h-relation: every processor sends
// exactly h messages and receives exactly h messages (the superposition of
// h independent random permutations), the GCel/CM-5 calibration pattern.
func FullHRelation(p, h, bytes int, rng *sim.RNG) *comm.Step {
	step := &comm.Step{Sends: sendLists(p, h), Barrier: true}
	for i := 0; i < h; i++ {
		perm := rng.Perm(p)
		for src := 0; src < p; src++ {
			step.Sends[src][i] = comm.Msg{Src: src, Dst: perm[src], Bytes: bytes}
		}
	}
	return step
}

// HHPermutation builds the Fig 7 pattern: h repetitions of one fixed random
// permutation, sent back to back. barrierEvery > 0 splits the traffic into
// chunks of that many messages per processor, each closed by a barrier (the
// paper's fix for the drift); barrierEvery == 0 sends everything in one
// unsynchronized step.
func HHPermutation(p, h, bytes, barrierEvery int, rng *sim.RNG) []*comm.Step {
	perm := rng.Perm(p)
	chunk := h
	if barrierEvery > 0 && barrierEvery < h {
		chunk = barrierEvery
	}
	var steps []*comm.Step
	remaining := h
	for remaining > 0 {
		n := chunk
		if n > remaining {
			n = remaining
		}
		step := &comm.Step{Sends: sendLists(p, n), Barrier: barrierEvery > 0}
		for src, list := range step.Sends {
			for i := range list {
				list[i] = comm.Msg{Src: src, Dst: perm[src], Bytes: bytes}
			}
		}
		steps = append(steps, step)
		remaining -= n
	}
	// The measurement always ends aligned so that repeated trials are
	// comparable, as the paper's timing loops did.
	steps[len(steps)-1].Barrier = true
	return steps
}

// BlockPermutation builds a full block permutation: every processor sends a
// single message of bytes bytes to a distinct random destination. This is
// the pattern used to extract the MP-BPRAM parameters sigma and ell.
func BlockPermutation(p, bytes int, rng *sim.RNG) *comm.Step {
	return RandomPermutation(p, bytes, rng)
}

// CubePermutation builds the bitonic-exchange pattern: every processor
// exchanges one message with the processor whose index differs in the given
// bit. This pattern routes conflict-free through the MasPar's delta network
// and is the reason bitonic sort runs about twice as fast there as a
// random-permutation cost model predicts.
func CubePermutation(p, bit, bytes int) *comm.Step {
	if 1<<uint(bit) >= p {
		panic(fmt.Sprintf("calibrate: bit %d out of range for p=%d", bit, p))
	}
	step := &comm.Step{Sends: sendLists(p, 1), Barrier: true}
	for src := 0; src < p; src++ {
		step.Sends[src][0] = comm.Msg{Src: src, Dst: src ^ (1 << uint(bit)), Bytes: bytes}
	}
	return step
}

// MultinodeScatter builds the Fig 14 pattern: sqrt(p) source processors
// each scatter h messages across the remaining processors so that every
// non-source processor receives at most ceil(h*srcs/(p-srcs)) messages.
func MultinodeScatter(p, srcs, h, bytes int, rng *sim.RNG) *comm.Step {
	if srcs < 1 || srcs >= p {
		panic(fmt.Sprintf("calibrate: %d scatter sources of %d processors", srcs, p))
	}
	sources := rng.Sample(p, srcs)
	isSrc := make([]bool, p)
	for _, s := range sources {
		isSrc[s] = true
	}
	targets := make([]int, 0, p-srcs)
	for i := 0; i < p; i++ {
		if !isSrc[i] {
			targets = append(targets, i)
		}
	}
	step := &comm.Step{Sends: make([][]comm.Msg, p), Barrier: true}
	next := 0
	for _, s := range sources {
		list := make([]comm.Msg, h)
		for i := range list {
			list[i] = comm.Msg{Src: s, Dst: targets[next%len(targets)], Bytes: bytes}
			next++
		}
		step.Sends[s] = list
	}
	return step
}
