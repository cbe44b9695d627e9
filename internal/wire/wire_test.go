package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// Property: every encoder/decoder pair round-trips.
func TestUint32sRoundTrip(t *testing.T) {
	f := func(xs []uint32) bool {
		got := Uint32s(PutUint32s(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		got := Float64sInto(nil, AppendFloat64s(nil, xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			// NaN round-trips bit-exactly through Float64bits.
			if got[i] != xs[i] && !(math.IsNaN(got[i]) && math.IsNaN(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFloat32sRoundTrip: 4-byte words are the IEEE-754 single encoding of
// each value rounded to float32, byte for byte, and decode to those
// singles widened; 8-byte words are the double encoding.
func TestFloat32sRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		var want []byte
		for _, x := range xs {
			want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(x)))
		}
		b := AppendWords(nil, xs, 4)
		if !bytes.Equal(b, want) || !bytes.Equal(AppendWords(nil, xs, 8), AppendFloat64s(nil, xs)) {
			return false
		}
		got := WordsInto(nil, b, 4)
		if len(got) != len(xs) {
			return false
		}
		for i, x := range xs {
			if got[i] != float64(float32(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByteLengths(t *testing.T) {
	if got := len(PutUint32s(make([]uint32, 5))); got != 20 {
		t.Fatalf("uint32 payload %d bytes, want 20", got)
	}
	if got := len(AppendFloat64s(nil, make([]float64, 3))); got != 24 {
		t.Fatalf("float64 payload %d bytes, want 24", got)
	}
}

func TestRaggedPayloadsPanic(t *testing.T) {
	cases := []func(){
		func() { Uint32s(make([]byte, 5)) },
		func() { WordsInto(nil, make([]byte, 7), 4) },
		func() { Float64sInto(nil, make([]byte, 9)) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: ragged payload did not panic", i)
				}
			}()
			c()
		}()
	}
}

func TestEndianness(t *testing.T) {
	b := PutUint32s([]uint32{0x01020304})
	want := []byte{0x04, 0x03, 0x02, 0x01}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x (little-endian)", i, b[i], want[i])
		}
	}
}
