package wire

import (
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

func TestFloat32sRoundTrip(t *testing.T) {
	f := func(xs []float32) bool {
		got := Float32sInto(nil, AppendFloat32s(nil, xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] && !(got[i] != got[i] && xs[i] != xs[i]) {
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
		func() { Float32sInto(nil, make([]byte, 7)) },
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
