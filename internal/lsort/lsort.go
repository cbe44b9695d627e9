// Package lsort provides the local sorting substrate used inside the
// parallel sorting algorithms: the 8-bit LSD radix sort of Section 4.2.1
// and the merge-split of two sorted runs (the bitonic min/max split). Keys
// are uint32, the 4-byte computational word of the paper's sorting
// experiments.
package lsort

import "fmt"

// RadixBits is the digit width of the radix sort (the paper's r = 8).
const RadixBits = 8

// KeyBits is the key width (the paper's b = 32).
const KeyBits = 32

// RadixSort sorts keys ascending in place using an LSD radix sort with
// 8-bit digits (four counting passes over 256 buckets).
func RadixSort(keys []uint32) {
	n := len(keys)
	if n < 2 {
		return
	}
	buf := make([]uint32, n)
	var counts [1 << RadixBits]int
	src, dst := keys, buf
	for shift := 0; shift < KeyBits; shift += RadixBits {
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range src {
			counts[(k>>uint(shift))&0xFF]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for _, k := range src {
			d := (k >> uint(shift)) & 0xFF
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	// KeyBits/RadixBits = 4 passes: src ends up back in keys.
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// IsSorted reports whether keys is non-decreasing.
func IsSorted(keys []uint32) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// MergeLow writes into out the lowest len(out) keys of the union of the
// sorted runs a and b (the "keep the minima" half of a bitonic exchange).
// It panics if the runs cannot supply enough keys.
func MergeLow(out, a, b []uint32) {
	if len(a)+len(b) < len(out) {
		panic(fmt.Sprintf("lsort: merge-low wants %d keys from %d+%d", len(out), len(a), len(b)))
	}
	i, j := 0, 0
	for k := range out {
		switch {
		case i < len(a) && (j >= len(b) || a[i] <= b[j]):
			out[k] = a[i]
			i++
		default:
			out[k] = b[j]
			j++
		}
	}
}

// MergeHigh writes into out the highest len(out) keys of the union of the
// sorted runs a and b, in ascending order (the "keep the maxima" half of a
// bitonic exchange).
func MergeHigh(out, a, b []uint32) {
	if len(a)+len(b) < len(out) {
		panic(fmt.Sprintf("lsort: merge-high wants %d keys from %d+%d", len(out), len(a), len(b)))
	}
	i, j := len(a)-1, len(b)-1
	for k := len(out) - 1; k >= 0; k-- {
		switch {
		case i >= 0 && (j < 0 || a[i] >= b[j]):
			out[k] = a[i]
			i--
		default:
			out[k] = b[j]
			j--
		}
	}
}
