package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// TestAppendMatchesLegacy proves AppendUint32s produces byte-identical
// output to the legacy allocate-per-call PutUint32s, including when the
// destination already carries unrelated bytes (the reused-scratch case).
func TestAppendMatchesLegacy(t *testing.T) {
	prefix := []byte{0xde, 0xad}

	f := func(xs []uint32) bool {
		legacy := PutUint32s(xs)
		if !bytes.Equal(AppendUint32s(nil, xs), legacy) {
			return false
		}
		withPrefix := AppendUint32s(append([]byte(nil), prefix...), xs)
		return bytes.Equal(withPrefix[len(prefix):], legacy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSharedScratchAliasing is the pipeline's core safety property: encoding
// run A into a scratch buffer, decoding it, then reusing the same scratch
// for run B must leave A's decoded values untouched, and decoding B through
// the same decode scratch must match the legacy decoder exactly.
func TestSharedScratchAliasing(t *testing.T) {
	runA := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	runB := []uint32{0xffffffff, 0, 0xcafebabe, 42}

	var scratch []byte // shared encode scratch, reused across messages
	var dec []uint32   // shared decode scratch

	scratch = AppendUint32s(scratch[:0], runA)
	dec = Uint32sInto(dec, scratch)
	decodedA := append([]uint32(nil), dec...)

	// Reuse both scratches for the second message.
	scratch = AppendUint32s(scratch[:0], runB)
	dec = Uint32sInto(dec, scratch)

	for i, v := range decodedA {
		if v != runA[i] {
			t.Fatalf("decoded copy of run A mutated at %d: got %d want %d", i, v, runA[i])
		}
	}
	want := Uint32s(PutUint32s(runB))
	if len(dec) != len(want) {
		t.Fatalf("scratch decode of run B: %d words, want %d", len(dec), len(want))
	}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("scratch decode of run B differs at %d: got %d want %d", i, dec[i], want[i])
		}
	}
}

// TestIntoReusesBacking pins the scratch-reuse contract: when the
// destination has enough capacity the *Into decoders must not allocate a
// new backing array.
func TestIntoReusesBacking(t *testing.T) {
	pay := PutUint32s([]uint32{9, 8, 7})
	scratch := make([]uint32, 0, 16)
	got := Uint32sInto(scratch, pay)
	if &got[0] != &scratch[:1][0] {
		t.Fatal("Uint32sInto reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		got = Uint32sInto(got, pay)
	})
	if allocs != 0 {
		t.Fatalf("Uint32sInto allocates %.1f per call on warm scratch, want 0", allocs)
	}
}

// TestIntoShrinksAndGrows covers the resize edges of the *Into decoders.
func TestIntoShrinksAndGrows(t *testing.T) {
	big := Uint32sInto(nil, PutUint32s(make([]uint32, 64)))
	small := Uint32sInto(big, PutUint32s([]uint32{5}))
	if len(small) != 1 || small[0] != 5 {
		t.Fatalf("shrinking decode got %v", small)
	}
	grown := Uint32sInto(small, PutUint32s(make([]uint32, 128)))
	if len(grown) != 128 {
		t.Fatalf("growing decode got %d words, want 128", len(grown))
	}
	if f := Float64sInto(nil, AppendFloat64s(nil, []float64{math.Pi})); len(f) != 1 || f[0] != math.Pi {
		t.Fatalf("float64 decode got %v", f)
	}
}

// FuzzWireRoundTrip fuzzes the byte-level decoders against re-encoding:
// any word-aligned payload must decode and re-encode to identical bytes
// through every Append/Into codec pair.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(AppendFloat64s(nil, []float64{math.Inf(1), math.NaN(), -0.0}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b := raw[:len(raw)-len(raw)%8] // align to the largest word
		var encScratch []byte

		if got := AppendUint32s(encScratch[:0], Uint32sInto(nil, b)); !bytes.Equal(got, b) {
			t.Fatalf("uint32 round trip: %x != %x", got, b)
		}
		// 4-byte words widen to float64 and back: only a signalling NaN
		// may come back changed (quieted), and it stays a NaN.
		words := AppendWords(nil, WordsInto(nil, b, 4), 4)
		for i := 0; i < len(b); i += 4 {
			u := math.Float32frombits(binary.LittleEndian.Uint32(b[i:]))
			v := math.Float32frombits(binary.LittleEndian.Uint32(words[i:]))
			if !bytes.Equal(b[i:i+4], words[i:i+4]) && !(u != u && v != v) {
				t.Fatalf("4-byte word round trip at %d: %x != %x", i, words[i:i+4], b[i:i+4])
			}
		}
		if got := AppendFloat64s(nil, Float64sInto(nil, b)); !bytes.Equal(got, b) {
			t.Fatalf("float64 round trip: %x != %x", got, b)
		}
	})
}
