// Package matrix implements the dense float64 linear algebra the encryption
// schemes are built on: row-major matrices, matrix-vector and matrix-matrix
// products, LU factorization with partial pivoting, inversion and
// multi-right-hand-side solves, and sampling of well-conditioned random
// invertible matrices for key generation.
package matrix

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorization or solve meets a pivot too
// small to be numerically trustworthy.
var ErrSingular = errors.New("matrix: singular or near-singular matrix")

// Dense is a row-major rows×cols matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: non-positive dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Row returns row i as a mutable slice view.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols] }

// Raw exposes the flat row-major backing array for serialization.
func (m *Dense) Raw() []float64 { return m.data }

// FromRaw wraps a flat row-major array (taking ownership) as a rows×cols
// matrix.
func FromRaw(rows, cols int, raw []float64) (*Dense, error) {
	if rows <= 0 || cols <= 0 || len(raw) != rows*cols {
		return nil, fmt.Errorf("matrix: raw length %d does not match %dx%d", len(raw), rows, cols)
	}
	return &Dense{rows: rows, cols: cols, data: raw}, nil
}

// clone returns a deep copy of m.
func (m *Dense) clone() *Dense {
	return &Dense{rows: m.rows, cols: m.cols, data: append([]float64(nil), m.data...)}
}

// MulVec stores A·x into dst (length rows) and returns dst; dst may be nil.
// Each entry is one dot8 inner product, so the result has one fixed
// floating-point association on every machine.
func (m *Dense) MulVec(dst, x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec with %d-vector against %dx%d", len(x), m.rows, m.cols))
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	} else if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: MulVec destination %d, want %d", len(dst), m.rows))
	}
	for i := range dst {
		dst[i] = dot8(m.Row(i), x)
	}
	return dst
}

// panelRows is the height of the row panels VecMulBlock sweeps A in: 32
// rows of a d = 960 M₃ half (≈ 500 KB) stay in L2 while every vector of a
// block passes over them.
const panelRows = 32

// VecMulBlock stores the row-vector products x[b]ᵀ·A into dst[b] (length
// cols) for every vector of the block. This is the operation DCE's
// encryption uses (p̄ᵀM). A is swept once per block, one panel of rows at a
// time, the block's vectors running against a panel four at a time
// (axpyRows4: each load of a panel row serves four products) before the
// next panel is read: a block of B vectors streams A once, not B times.
// Entry j of each product still accumulates x[b][i]·A[i][j] in i order,
// each product and sum rounded on its own, so the panel cut, the block
// length and the grouping change the speed and not the bits.
func (m *Dense) VecMulBlock(dst, x [][]float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("matrix: VecMulBlock with %d destinations for %d vectors", len(dst), len(x)))
	}
	for b := range x {
		if len(x[b]) != m.rows {
			panic(fmt.Sprintf("matrix: VecMulBlock with %d-vector against %dx%d", len(x[b]), m.rows, m.cols))
		}
		if len(dst[b]) != m.cols {
			panic(fmt.Sprintf("matrix: VecMulBlock destination %d, want %d", len(dst[b]), m.cols))
		}
		clear(dst[b])
	}
	// pack holds four vectors' coefficients for one panel, row after row.
	var pack [4 * panelRows]float64
	for lo := 0; lo < m.rows; lo += panelRows {
		hi := min(lo+panelRows, m.rows)
		panel := m.data[lo*m.cols : hi*m.cols]
		rows := hi - lo
		b := 0
		for ; b+4 <= len(x); b += 4 {
			for q := range 4 {
				copy(pack[q*rows:(q+1)*rows], x[b+q][lo:hi])
			}
			axpyRows4((*[4][]float64)(dst[b:b+4]), pack[:], rows, rows, panel, m.cols)
		}
		for ; b < len(x); b++ {
			axpyRows(dst[b], x[b][lo:hi], panel, m.cols)
		}
	}
}

// identity returns the n×n identity matrix.
func identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
