package main

import (
	"strings"
	"testing"
)

// TestUnknownVariantIsRejected gives every algorithm a variant it lacks:
// qpsim must refuse it and name the variants the algorithm has, instead of
// quietly running the default one.
func TestUnknownVariantIsRejected(t *testing.T) {
	cases := []struct{ algo, variant, want string }{
		{"matmul", "stagered", "want staggered, unstaggered, bpram"},
		{"bitonic", "blok", "want word, block, bpram"},
		{"samplesort", "staggerd", "want padded, staggered"},
		{"apsp", "block", "apsp has no variants"},
	}
	for _, c := range cases {
		err := run("gcel", c.algo, 16, 64, c.variant, 0, 1, false, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-algo %s -variant %s: error %v, want one containing %q", c.algo, c.variant, err, c.want)
		}
	}
}
