// Package linalg provides the dense-matrix substrate: row-major float32
// matrices (the MasPar's and GCel's single-precision word) and float64
// matrices (the CM-5's double word), block extraction/insertion used by the
// distributed algorithms, and reference sequential kernels for verifying
// the parallel implementations.
package linalg

import (
	"fmt"

	"quantpar/internal/sim"
)

// Mat is a dense row-major float64 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// BlockInto copies the sub-matrix with top-left corner (r0, c0) and dst's
// shape into dst without allocating.
func (m *Mat) BlockInto(dst *Mat, r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+dst.Rows > m.Rows || c0+dst.Cols > m.Cols {
		panic(fmt.Sprintf("linalg: block (%d,%d)+%dx%d out of %dx%d", r0, c0, dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+dst.Cols])
	}
}

// RowSpan returns a no-copy view of rows [r0, r0+rows). The sub-matrix
// spans the full width, so its backing is a contiguous slice of m's Data;
// writes through the view are writes to m.
func (m *Mat) RowSpan(r0, rows int) Mat {
	return Mat{Rows: rows, Cols: m.Cols, Data: m.Data[r0*m.Cols : (r0+rows)*m.Cols]}
}

// SetBlock writes b into m with top-left corner (r0, c0).
func (m *Mat) SetBlock(r0, c0 int, b *Mat) {
	if r0 < 0 || c0 < 0 || r0+b.Rows > m.Rows || c0+b.Cols > m.Cols {
		panic(fmt.Sprintf("linalg: set-block (%d,%d)+%dx%d out of %dx%d", r0, c0, b.Rows, b.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < b.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+b.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
}

// Random fills the matrix with deterministic pseudo-random values in
// [-1, 1) drawn from rng.
func (m *Mat) Random(rng *sim.RNG) *Mat {
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// MatMul computes C = A*B sequentially (reference kernel, ikj order).
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ci := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k := 0; k < a.Cols; k++ {
			aik := a.Data[i*a.Cols+k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
	return c
}

// MatMulAdd computes C += A*B in place on c.
func MatMulAdd(c, a, b *Mat) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("linalg: matmul-add shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		ci := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k := 0; k < a.Cols; k++ {
			aik := a.Data[i*a.Cols+k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// Add computes C = A + B.
func Add(a, b *Mat) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: add shape mismatch")
	}
	c := NewMat(a.Rows, a.Cols)
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// MaxAbsDiff returns the largest absolute element-wise difference between a
// and b; used to verify parallel results against reference kernels.
func MaxAbsDiff(a, b *Mat) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: diff shape mismatch")
	}
	worst := 0.0
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
