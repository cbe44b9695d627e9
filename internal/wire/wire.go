// Package wire converts between typed payloads and the byte slices that
// bsplib programs send and receive. All encodings are little-endian fixed-width words, matching
// the 4-byte computational word the paper assumes on the MasPar and GCel
// and the 8-byte double-precision word on the CM-5.
//
// The package offers two API styles:
//
//   - Append* encoders and *Into decoders write into caller-supplied
//     buffers, so algorithm kernels can encode every message of a run into
//     one reused scratch slice (the zero-copy pipeline's send side). They
//     follow the standard library's append convention: the destination may
//     be nil, and the (possibly grown) result is returned.
//   - The legacy PutUint32s and Uint32s allocate a fresh slice per call.
//     They are thin wrappers over the append forms for call sites where a
//     private slice is actually wanted.
//
// Encoding is identical across both styles; the tests assert byte equality.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUint32s appends xs to dst as consecutive little-endian 32-bit words.
func AppendUint32s(dst []byte, xs []uint32) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, x)
	}
	return dst
}

// Uint32sInto decodes a payload written by AppendUint32s into dst, growing
// it as needed, and returns the decoded words. Like all wire decoders it
// panics on a ragged payload: message framing is fixed by the algorithms,
// so a payload that is not a whole number of words is always a bug.
func Uint32sInto(dst []uint32, b []byte) []uint32 {
	n := wordCount(b, 4, "uint32")
	dst = growU32(dst, n)
	for i := 0; i < n; i++ {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return dst
}

// PutUint32s encodes xs as consecutive little-endian 32-bit words into a
// fresh slice.
func PutUint32s(xs []uint32) []byte {
	return AppendUint32s(make([]byte, 0, 4*len(xs)), xs)
}

// Uint32s decodes a payload written by PutUint32s into a fresh slice.
func Uint32s(b []byte) []uint32 {
	return Uint32sInto(nil, b)
}

// AppendFloat64s appends xs to dst as little-endian IEEE-754 doubles.
func AppendFloat64s(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// Float64sInto decodes a payload written by AppendFloat64s into dst.
func Float64sInto(dst []float64, b []byte) []float64 {
	n := wordCount(b, 8, "float64")
	dst = growF64(dst, n)
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// AppendWords appends xs to dst as machine words of w bytes: doubles when
// w is 8, IEEE-754 singles otherwise (the 4-byte word of the MasPar and
// the GCel, to which each value is rounded).
func AppendWords(dst []byte, xs []float64, w int) []byte {
	if w == 8 {
		return AppendFloat64s(dst, xs)
	}
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(x)))
	}
	return dst
}

// WordsInto decodes a payload written by AppendWords with word size w into
// dst, widening singles to float64.
func WordsInto(dst []float64, b []byte, w int) []float64 {
	if w == 8 {
		return Float64sInto(dst, b)
	}
	n := wordCount(b, 4, "float32")
	dst = growF64(dst, n)
	for i := 0; i < n; i++ {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return dst
}

// wordCount validates framing and returns the number of whole words in b.
func wordCount(b []byte, word int, kind string) int {
	if len(b)%word != 0 {
		panic(fmt.Sprintf("wire: ragged %s payload of %d bytes", kind, len(b)))
	}
	return len(b) / word
}

// The grow helpers resize dst to exactly n elements, reusing its backing
// array when the capacity suffices. They are monomorphic rather than
// generic so the decode hot paths stay trivially inlinable.

func growU32(dst []uint32, n int) []uint32 {
	if cap(dst) < n {
		return make([]uint32, n)
	}
	return dst[:n]
}

func growF64(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}
