package matrix

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"ppanns/internal/par"
	"ppanns/internal/rng"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored compactly with L's unit diagonal implied and L's
// multipliers negated, so that every elimination and substitution step is
// the same "add a combination of rows" update (axpyRows, or axpyRowsEach
// for many rows that combine the same ones).
type LU struct {
	lu    *Dense
	pivot []int
	// hasZero records whether any stored factor is zero, so the solves
	// scan their coefficient blocks for the zeros axpyRows skips only when
	// there can be one.
	hasZero bool
}

// pivotTol is the smallest pivot magnitude (relative to the matrix scale)
// accepted before a factorization is declared numerically singular.
const pivotTol = 1e-10

const (
	// luBlock is the panel width of the blocked factorization and the row
	// block of the blocked triangular solves: 64 rows of a 64-column panel
	// are 32 KB, an L1-resident operand for the update that follows.
	luBlock = 64
	// luRows is the number of trailing rows one task of the parallel
	// update takes.
	luRows = 16
)

// Factorize computes the LU factorization of the square matrix a.
// It returns ErrSingular when a pivot falls below tolerance.
//
// The elimination is right-looking and cache-blocked: a panel of luBlock
// columns is factorized with partial pivoting, the rows of U beside it are
// finished, and the trailing submatrix takes the whole panel's update in
// one pass, row spans in parallel. The panel itself is factorized the same
// way, recursively: its left half, then the right half's update by it,
// then the right half, down to luLeaf columns eliminated one pivot at a
// time. Every element still receives its updates one pivot at a time in
// pivot order, so pivots and factors are those of the unblocked algorithm
// bit for bit, on any number of cores.
func Factorize(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: LU of non-square %dx%d: %w", a.rows, a.cols, ErrSingular)
	}
	n := a.rows
	f := &LU{lu: a.Clone(), pivot: make([]int, n)}

	// Matrix scale for the relative pivot test.
	var scale float64
	for _, v := range f.lu.data {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return nil, fmt.Errorf("matrix: zero matrix: %w", ErrSingular)
	}

	for k0 := 0; k0 < n; k0 += luBlock {
		k1 := min(k0+luBlock, n)
		if err := f.factorPanel(k0, k1, pivotTol*scale); err != nil {
			return nil, err
		}
		f.update(k0, k1, n)
	}
	f.hasZero = slices.Contains(f.lu.data, 0)
	return f, nil
}

// luLeaf is the widest panel factorPanel eliminates one pivot at a time.
const luLeaf = 8

// factorPanel eliminates columns [k0,k1) below the diagonal, pivoting
// whole rows but updating only the panel's own columns. The columns must
// already hold every update from the pivots before k0.
func (f *LU) factorPanel(k0, k1 int, tol float64) error {
	if k1-k0 > luLeaf {
		m := k0 + (k1-k0)/2
		if err := f.factorPanel(k0, m, tol); err != nil {
			return err
		}
		f.update(k0, m, k1)
		return f.factorPanel(m, k1, tol)
	}
	lu, n := f.lu, f.lu.rows
	for k := k0; k < k1; k++ {
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max, p = v, i
			}
		}
		if max < tol {
			return fmt.Errorf("matrix: pivot %g below tolerance at step %d: %w", max, k, ErrSingular)
		}
		f.pivot[k] = p
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		rk := lu.Row(k)
		inv := 1 / rk[k]
		for i := k + 1; i < n; i++ {
			ri := lu.Row(i)
			m := -(ri[k] * inv)
			ri[k] = m
			if m != 0 {
				axpy1(ri[k+1:k1], m, rk[k+1:k1])
			}
		}
	}
	return nil
}

// update applies the pivots [k0,k1) to columns [k1,c1): each row of U
// beside them takes the pivot rows above it, and every row from k1 on takes
// all of them, four rows of a luRows span at a time, spans in parallel.
func (f *LU) update(k0, k1, c1 int) {
	lu, n := f.lu, f.lu.rows
	if k1 == c1 {
		return
	}
	for r := k0 + 1; r < k1; r++ {
		axpyRows(lu.Row(r)[k1:c1], lu.Row(r)[k0:r], lu.data[k0*n+k1:], n)
	}
	par.Spans(runtime.GOMAXPROCS(0), n-k1, luRows, func(_, lo, hi int) {
		axpyRowsEach(k1+lo, k1+hi, func(i int) []float64 { return lu.Row(i)[k1:c1] },
			lu.data[k0:], n, k1-k0, lu.data[k0*n+k1:], n, true)
	})
}

// Solve solves A·x = b in place of a fresh slice and returns x: SolveMat
// with one right-hand side, so x is bit for bit the matching column of
// SolveMat's result.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("matrix: LU solve with %d-vector against %dx%d", len(b), n, n))
	}
	x := make([]float64, n)
	for i, p := range f.rowPerm() {
		x[i] = b[p]
	}
	f.substitute(x, 1, 0)
	for i := range x {
		x[i] = -x[i]
	}
	return x
}

// invPanel is the number of columns one task of Inverse or SolveMat solves
// for.
const invPanel = 64

// rowPerm returns perm with (P·B)[i] = B[perm[i]] for the factorization's
// row permutation P.
func (f *LU) rowPerm() []int {
	perm := make([]int, f.lu.rows)
	for i := range perm {
		perm[i] = i
	}
	for k, p := range f.pivot {
		perm[k], perm[p] = perm[p], perm[k]
	}
	return perm
}

// panels calls body once per panel [c0,c1) of invPanel columns out of
// [0,cols), in parallel, each with a worker-private n×invPanel scratch
// block. Panels share nothing, so the result does not depend on how many
// run at once.
func (f *LU) panels(cols int, body func(s []float64, c0, c1 int)) {
	n := f.lu.rows
	scratch := make([][]float64, runtime.GOMAXPROCS(0))
	par.Spans(len(scratch), cols, invPanel, func(worker, c0, c1 int) {
		if scratch[worker] == nil {
			scratch[worker] = make([]float64, n*invPanel)
		}
		body(scratch[worker], c0, c1)
	})
}

// Inverse returns A⁻¹ from the factorization.
//
// With P·A = L·U, A⁻¹ = U⁻¹·L⁻¹·P, and column j of L⁻¹ ends up as column
// perm[j] of the inverse. The columns are solved for in panels of invPanel,
// each in a contiguous scratch block: a forward substitution that starts at
// the panel's first row (L⁻¹ is lower triangular, so everything above is
// zero), a back substitution, both in row blocks of luBlock so that the
// rows being combined stay in L1, and a scatter into place.
func (f *LU) Inverse() *Dense {
	n := f.lu.rows
	perm := f.rowPerm()
	inv := NewDense(n, n)
	f.panels(n, func(s []float64, c0, c1 int) {
		w := c1 - c0
		clear(s[:n*w])
		for c := c0; c < c1; c++ {
			s[c*w+c-c0] = 1
		}
		f.substitute(s[:n*w], w, c0)
		for i := 0; i < n; i++ {
			out, ri := inv.Row(i), s[i*w:(i+1)*w]
			for j, v := range ri {
				out[perm[c0+j]] = -v
			}
		}
	})
	return inv
}

// SolveMat returns X with A·X = B, for any number of right-hand sides: the
// rows of B are permuted by P, its columns solved for in panels by the same
// blocked substitutions as Inverse, and copied out. A column of X does not
// depend on the panel it was solved in, so X equals Solve column by column.
func (f *LU) SolveMat(b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("matrix: LU solve with %dx%d right-hand side against %dx%d", b.rows, b.cols, n, n))
	}
	perm := f.rowPerm()
	x := NewDense(n, b.cols)
	f.panels(b.cols, func(s []float64, c0, c1 int) {
		w := c1 - c0
		for i, p := range perm {
			copy(s[i*w:(i+1)*w], b.Row(p)[c0:c1])
		}
		f.substitute(s[:n*w], w, 0)
		for i := 0; i < n; i++ {
			out, ri := x.Row(i)[c0:c1], s[i*w:(i+1)*w]
			for j, v := range ri {
				out[j] = -v
			}
		}
	})
	return x
}

// substitute overwrites the permuted right-hand sides in s (row i at
// s[i·w:], w columns) with −U⁻¹·L⁻¹ of them. Rows above from must be zero
// on entry; the forward substitution skips them.
//
// Both substitutions run in row blocks of luBlock. A block first takes the
// solved blocks before it (forward) or after it (backward) through
// axpyRowsEach, four of its rows sharing each load of a solved row, and
// then its own triangle row by row through axpyRows. A row still takes its
// terms one at a time, in the same order whatever w is, so a column of the
// result does not depend on the other columns solved with it.
func (f *LU) substitute(s []float64, w, from int) {
	n := f.lu.rows
	lu := f.lu.data
	row := func(i int) []float64 { return s[i*w : (i+1)*w] }

	// Forward: row i of L⁻¹·b is b_i plus the (negated) multipliers of row
	// i times the rows above, from `from` on.
	for i0 := from; i0 < n; i0 += luBlock {
		i1 := min(i0+luBlock, n)
		for j0 := from; j0 < i0; j0 += luBlock {
			axpyRowsEach(i0, i1, row, lu[j0:], n, luBlock, s[j0*w:], w, f.hasZero)
		}
		for i := i0 + 1; i < i1; i++ {
			axpyRows(row(i), lu[i*n+i0:i*n+i], s[i0*w:], w)
		}
	}

	// Backward: solved rows are kept negated, so a row is again the right
	// hand side plus U's entries times the rows below, divided by the
	// diagonal.
	for i1 := n; i1 > 0; i1 -= luBlock {
		i0 := max(i1-luBlock, 0)
		for j0 := i1; j0 < n; j0 += luBlock {
			j1 := min(j0+luBlock, n)
			axpyRowsEach(i0, i1, row, lu[j0:], n, j1-j0, s[j0*w:], w, f.hasZero)
		}
		for i := i1 - 1; i >= i0; i-- {
			ri := row(i)
			axpyRows(ri, lu[i*n+i+1:i*n+i1], s[(i+1)*w:], w)
			d := lu[i*n+i]
			for j := range ri {
				ri[j] = -(ri[j] / d)
			}
		}
	}
}

// Inverse returns m⁻¹, or ErrSingular when m is not invertible to working
// precision.
func (m *Dense) Inverse() (*Dense, error) {
	f, err := Factorize(m)
	if err != nil {
		return nil, err
	}
	return f.Inverse(), nil
}

// Solve solves m·x = b.
func (m *Dense) Solve(b []float64) ([]float64, error) {
	f, err := Factorize(m)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// RandomInvertible samples an n×n matrix with RandomFactored and returns it
// with its inverse.
func RandomInvertible(r *rng.Rand, n int) (*Dense, *Dense) {
	m, f := RandomFactored(r, n)
	return m, f.Inverse()
}

// RandomFactored samples an n×n matrix with independent N(0,1) entries and
// retries until the LU factorization accepts it, returning the matrix and
// that factorization — for a caller that needs M⁻¹·B for a few right-hand
// sides rather than all of M⁻¹. Gaussian matrices are invertible with
// probability 1 and almost always well conditioned, so the loop virtually
// never iterates more than once.
func RandomFactored(r *rng.Rand, n int) (*Dense, *LU) {
	const attempts = 32
	for range attempts {
		m := NewDense(n, n)
		for i := range m.data {
			m.data[i] = r.NormFloat64()
		}
		if f, err := Factorize(m); err == nil {
			return m, f
		}
	}
	panic(fmt.Sprintf("matrix: could not sample an invertible matrix after %d attempts", attempts))
}
