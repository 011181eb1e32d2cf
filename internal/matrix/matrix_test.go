package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func TestMulVecAndVecMul(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}) // 3x2
	got := m.MulVec(nil, []float64{1, 1})
	if !kerneltest.ApproxEqual(got, []float64{3, 7, 11}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	got = m.vecMul(nil, []float64{1, 1, 1})
	if !kerneltest.ApproxEqual(got, []float64{9, 12}, 0) {
		t.Fatalf("VecMul = %v", got)
	}
}

func TestVecMulMatchesTransposeMulVec(t *testing.T) {
	r := rng.NewSeeded(1)
	for trial := 0; trial < 30; trial++ {
		m := NewDense(7, 5)
		for i := range m.Raw() {
			m.Raw()[i] = r.NormFloat64()
		}
		x := rng.Gaussian(r, nil, 7)
		a := m.vecMul(nil, x)
		b := m.transpose().MulVec(nil, x)
		if !kerneltest.ApproxEqual(a, b, 1e-12) {
			t.Fatalf("xᵀA != Aᵀx: %v vs %v", a, b)
		}
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if !kerneltest.ApproxEqual(c.Raw(), want.Raw(), 0) {
		t.Fatalf("Mul = %v", c.Raw())
	}
}

func TestIdentity(t *testing.T) {
	id := identity(4)
	r := rng.NewSeeded(2)
	m := NewDense(4, 4)
	for i := range m.Raw() {
		m.Raw()[i] = r.NormFloat64()
	}
	if !kerneltest.ApproxEqual(mul(id, m).Raw(), m.Raw(), 0) {
		t.Fatal("I·M != M")
	}
	if !kerneltest.ApproxEqual(mul(m, id).Raw(), m.Raw(), 0) {
		t.Fatal("M·I != M")
	}
}

func TestInverse(t *testing.T) {
	r := rng.NewSeeded(3)
	for trial := 0; trial < 20; trial++ {
		n := 3 + trial%13
		m, inv := RandomInvertible(r, n)
		prod := mul(m, inv)
		id := identity(n)
		if !kerneltest.ApproxEqual(prod.Raw(), id.Raw(), 1e-8) {
			t.Fatalf("n=%d: M·M⁻¹ deviates from I", n)
		}
	}
}

func TestSolve(t *testing.T) {
	r := rng.NewSeeded(4)
	for trial := 0; trial < 20; trial++ {
		n := 8
		m, _ := RandomInvertible(r, n)
		want := rng.Gaussian(r, nil, n)
		b := m.MulVec(nil, want)
		got, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !kerneltest.ApproxEqual(got, want, 1e-8) {
			t.Fatalf("solve mismatch: %v vs %v", got, want)
		}
	}
}

func TestSingularDetected(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {2, 4}}) // rank 1
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
	z := NewDense(3, 3)
	if _, err := z.Inverse(); err == nil {
		t.Fatal("expected ErrSingular for zero matrix")
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	if _, err := factorize(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square factorization")
	}
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.transpose()
	if tr.Rows() != 3 || tr.cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %+v", tr.Raw())
	}
}

func TestFromRaw(t *testing.T) {
	m, err := FromRaw(2, 2, []float64{1, 2, 3, 4})
	if err != nil || m.At(1, 0) != 3 {
		t.Fatalf("FromRaw: %v", err)
	}
	if _, err := FromRaw(2, 3, []float64{1}); err == nil {
		t.Fatal("expected error for bad raw length")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.clone()
	c.set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestBilinearInvariance(t *testing.T) {
	// The invariance every matrix-encryption scheme in the paper relies on:
	// (xᵀM)·(M⁻¹y) = xᵀy.
	r := rng.NewSeeded(5)
	for trial := 0; trial < 20; trial++ {
		n := 12
		m, inv := RandomInvertible(r, n)
		x := rng.Gaussian(r, nil, n)
		y := rng.Gaussian(r, nil, n)
		encX := m.vecMul(nil, x)
		encY := inv.MulVec(nil, y)
		got := vec.Dot(encX, encY)
		want := vec.Dot(x, y)
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("invariance broken: %v vs %v", got, want)
		}
	}
}

// The unblocked algorithms the blocked ones replaced, kept as oracles.

// refFactorize is row-at-a-time Gaussian elimination with partial pivoting,
// every multiplier applied, zero or not, returning the compact factors (L's
// multipliers positive), pivots, and whether the matrix was accepted.
func refFactorize(a *Dense) (*Dense, []int, bool) {
	n := a.rows
	lu := a.clone()
	pivot := make([]int, n)
	var scale float64
	for _, v := range lu.data {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		return nil, nil, false
	}
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max, p = v, i
			}
		}
		if max < pivotTol*scale {
			return nil, nil, false
		}
		pivot[k] = p
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) * inv
			lu.set(i, k, f)
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return lu, pivot, true
}

// refVecMul is the scalar xᵀ·A loop VecMul used to be, every term added,
// zero coefficients included.
func refVecMul(m *Dense, x []float64) []float64 {
	dst := make([]float64, m.cols)
	for i, xv := range x {
		for j, v := range m.Row(i) {
			dst[j] += xv * v
		}
	}
	return dst
}

func gaussianMatrix(r *rng.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = r.NormFloat64()
	}
	return m
}

// maxRowSum is ‖a − b‖∞, the largest absolute row sum of the difference.
func maxRowSum(a, b *Dense) float64 {
	var worst float64
	for i := 0; i < a.rows; i++ {
		var sum float64
		for j, v := range a.Row(i) {
			sum += math.Abs(v - b.At(i, j))
		}
		worst = math.Max(worst, sum)
	}
	return worst
}

// TestBlockedLUMatchesUnblocked checks, at sizes on both sides of every
// block boundary, that the blocked factorization reproduces the unblocked
// one bit for bit (pivots and factors), that A·A⁻¹ is the identity and
// A·X = B for SolveMat's X to 1e-9·n in the max-row-sum norm, and that
// none of them depends on GOMAXPROCS. Two sizes run again on a matrix with
// signed zeros, whose zero multipliers both sides apply.
func TestBlockedLUMatchesUnblocked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.NewSeeded(6)
	for _, c := range []struct {
		n      int
		sparse bool
	}{{1, false}, {2, false}, {7, false}, {63, false}, {64, false}, {65, false}, {200, false}, {484, false}, {65, true}, {200, true}} {
		n := c.n
		a := gaussianMatrix(r, n, n)
		if c.sparse {
			signedZeros(r, a, true)
		}
		// The shape KeyGen solves for: half as many right-hand sides as
		// rows, more than one panel of them from n=120 on.
		rhs := gaussianMatrix(r, n, n/2+4)
		wantLU, wantPivot, ok := refFactorize(a)
		if !ok {
			t.Fatalf("n=%d: reference rejected a Gaussian matrix", n)
		}
		var inv1, x1 *Dense
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			f, err := factorize(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for k := range wantPivot {
				if f.pivot[k] != wantPivot[k] {
					t.Fatalf("n=%d procs=%d: pivot %d is row %d, reference %d", n, procs, k, f.pivot[k], wantPivot[k])
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := wantLU.At(i, j)
					if j < i {
						want = -want // multipliers are stored negated
					}
					if got := f.lu.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d procs=%d: factor (%d,%d) = %v, reference %v", n, procs, i, j, got, want)
					}
				}
			}
			inv, x := f.inverse(), f.SolveMat(rhs)
			if inv1 == nil {
				inv1, x1 = inv, x
				continue
			}
			for i, v := range inv.data {
				if v != inv1.data[i] {
					t.Fatalf("n=%d: inverse differs between GOMAXPROCS 1 and %d", n, procs)
				}
			}
			for i, v := range x.data {
				if math.Float64bits(v) != math.Float64bits(x1.data[i]) {
					t.Fatalf("n=%d: SolveMat differs between GOMAXPROCS 1 and %d", n, procs)
				}
			}
		}
		if worst := maxRowSum(mul(a, inv1), identity(n)); worst > 1e-9*float64(n) {
			t.Fatalf("n=%d: ‖A·A⁻¹ − I‖∞ = %g, want <= %g", n, worst, 1e-9*float64(n))
		}
		if worst := maxRowSum(mul(a, x1), rhs); worst > 1e-9*float64(n) {
			t.Fatalf("n=%d: ‖A·X − B‖∞ = %g, want <= %g", n, worst, 1e-9*float64(n))
		}
		// The column-at-a-time solve is the third witness: against a column
		// of the inverse within rounding, against SolveMat's columns bit for
		// bit.
		f, _ := factorize(a)
		e := make([]float64, n)
		e[n/2] = 1
		for i, v := range f.solve(e) {
			if math.Abs(v-inv1.At(i, n/2)) > 1e-9*(1+math.Abs(v)) {
				t.Fatalf("n=%d: Solve(e_%d)[%d] = %v, inverse column %v", n, n/2, i, v, inv1.At(i, n/2))
			}
		}
		col := make([]float64, n)
		for j := 0; j < rhs.cols; j++ {
			for i := range col {
				col[i] = rhs.At(i, j)
			}
			for i, v := range f.solve(col) {
				if math.Float64bits(v) != math.Float64bits(x1.At(i, j)) {
					t.Fatalf("n=%d: Solve(B column %d)[%d] = %v, SolveMat %v", n, j, i, v, x1.At(i, j))
				}
			}
		}
	}
}

// TestInverseGolden pins Inverse's bits to digests taken before Inverse and
// SolveMat came to share one substitution body, so the shared body cannot
// drift: M₁⁻¹ and M₂⁻¹, and the AME and ASPE keys, are still Inverse's.
func TestInverseGolden(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{7, "9915820c4204d5b742b361ee19b6b1279be89d64a18c5e471e24d96d37382eba"},
		{65, "663a8049bb52c5ac3f44ef88eaeefd3a98a94c1b02f476019df26aea6c876a22"},
		{200, "f9d6d40da725687f32c43646abfb73087d644725ca40addb99a1d2a9bb216b25"},
	} {
		inv, err := gaussianMatrix(rng.NewSeeded(uint64(1000+c.n)), c.n, c.n).Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsDigest(inv.data); got != c.want {
			t.Errorf("n=%d: inverse digest %s, want %s", c.n, got, c.want)
		}
	}
}

// bitsDigest is the SHA-256 of the values' little-endian bits.
func bitsDigest(data []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// signedZeros sets about a third of m's entries to +0 or −0. With unit set
// (m square), every fifth row becomes a row of the identity whose zeros are
// −0, and the diagonal is kept away from zero: the factors and solves then
// meet zero coefficients in front of entries that hold −0 and take no other
// term, so a zero term that is skipped shows in the bits (−0 + +0 is +0).
func signedZeros(r *rng.Rand, m *Dense, unit bool) *Dense {
	negZero := math.Copysign(0, -1)
	for i := range m.data {
		switch r.IntN(6) {
		case 0:
			m.data[i] = 0
		case 1:
			m.data[i] = negZero
		}
	}
	if unit {
		for i := 0; i < m.rows; i++ {
			if i%5 == 2 {
				for j := range m.Row(i) {
					m.set(i, j, negZero)
				}
			}
			m.set(i, i, 1+math.Abs(m.At(i, i)))
		}
	}
	return m
}

// TestSolveMatMatchesSolve holds SolveMat to its promise that X equals
// Solve column by column, bit for bit, at sizes on both sides of the row
// blocks and of the right-hand-side panels, on Gaussian matrices and on
// ones with signed zeros. The sparse n=200, 129-column solve is also pinned
// to a digest, captured when every zero term came to be added, so a solve
// that skips one fails it.
func TestSolveMatMatchesSolve(t *testing.T) {
	const sparseDigest = "2b17bde164368d6d7be8f213b2ed899fcf8a1ba4c21394b632670a0e287eebf4"
	r := rng.NewSeeded(13)
	for _, sparse := range []bool{false, true} {
		for _, n := range []int{1, 63, 64, 65, 130, 200} {
			a := gaussianMatrix(r, n, n)
			if sparse {
				signedZeros(r, a, true)
			}
			f, err := factorize(a)
			if err != nil {
				t.Fatalf("n=%d sparse=%v: %v", n, sparse, err)
			}
			for _, cols := range []int{1, 63, 64, 65, 129} {
				b := gaussianMatrix(r, n, cols)
				if sparse {
					signedZeros(r, b, false)
				}
				x := f.SolveMat(b)
				col := make([]float64, n)
				for j := 0; j < cols; j++ {
					for i := range col {
						col[i] = b.At(i, j)
					}
					for i, v := range f.solve(col) {
						if math.Float64bits(v) != math.Float64bits(x.At(i, j)) {
							t.Fatalf("n=%d sparse=%v cols=%d: Solve(B column %d)[%d] = %v, SolveMat %v", n, sparse, cols, j, i, v, x.At(i, j))
						}
					}
				}
				if sparse && n == 200 && cols == 129 {
					if got := bitsDigest(x.data); got != sparseDigest {
						t.Errorf("sparse n=200: SolveMat digest %s, want %s", got, sparseDigest)
					}
				}
			}
		}
	}
}

func TestBlockedLUSingular(t *testing.T) {
	for _, n := range []int{1, 3, 70, 130} {
		if _, err := factorize(NewDense(n, n)); !errors.Is(err, ErrSingular) {
			t.Fatalf("n=%d zero matrix: %v", n, err)
		}
		// A rank-deficient matrix whose dependency only shows past the
		// first panel: the last row repeats the first.
		a := gaussianMatrix(rng.NewSeeded(uint64(n)), n, n)
		copy(a.Row(n-1), a.Row(0))
		if n == 1 {
			continue
		}
		if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
			t.Fatalf("n=%d rank-deficient matrix: %v", n, err)
		}
	}
}

// FuzzVecMul holds the row-blocked VecMul to the scalar loop it replaced,
// bit for bit, over shapes that straddle the four-row block and inputs
// with zeros sprinkled in.
func FuzzVecMul(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(5), uint8(0))
	f.Add(uint64(2), uint8(64), uint8(33), uint8(3))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(4), uint8(13), uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, zeroEvery uint8) {
		if rows == 0 || cols == 0 {
			return
		}
		r := rng.NewSeeded(seed)
		m := gaussianMatrix(r, int(rows), int(cols))
		x := rng.Gaussian(r, nil, int(rows))
		if zeroEvery > 0 {
			for i := 0; i < len(x); i += int(zeroEvery) {
				x[i] = 0
			}
			for i := 0; i < len(m.data); i += 1 + int(zeroEvery)*3 {
				m.data[i] = 0
			}
		}
		got, want := m.vecMul(nil, x), refVecMul(m, x)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%dx%d column %d: %v, scalar loop %v", rows, cols, j, got[j], want[j])
			}
		}
	})
}

// FuzzVecMulBlock holds every product of a block to the scalar loop, bit
// for bit: block lengths 1–17 (the vectors run four at a time, the last one
// to three alone), row counts on both sides of the panel height and of its
// four-row steps, zero coefficients sprinkled in. With zeros, A[0][0] is
// +Inf, so a zero coefficient on row 0 turns column 0 to NaN on both sides,
// and one that is skipped leaves it finite.
func FuzzVecMulBlock(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(5), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(panelRows), uint8(33), uint8(16), uint8(3))
	f.Add(uint64(3), uint8(panelRows+1), uint8(1), uint8(17), uint8(1))
	f.Add(uint64(4), uint8(3*panelRows+6), uint8(200), uint8(15), uint8(2))
	// Blocks of 4, 5 and 8 vectors: one four-vector group, one and a
	// remainder of one, two.
	f.Add(uint64(5), uint8(2*panelRows+3), uint8(37), uint8(3), uint8(0))
	f.Add(uint64(6), uint8(panelRows-1), uint8(9), uint8(4), uint8(3))
	f.Add(uint64(7), uint8(70), uint8(64), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, block, zeroEvery uint8) {
		if rows == 0 || cols == 0 {
			return
		}
		r := rng.NewSeeded(seed)
		m := gaussianMatrix(r, int(rows), int(cols))
		if zeroEvery > 0 {
			m.data[0] = math.Inf(1)
		}
		n := 1 + int(block)%17
		x, dst := make([][]float64, n), make([][]float64, n)
		for b := range x {
			x[b] = rng.Gaussian(r, nil, int(rows))
			dst[b] = rng.Gaussian(r, nil, int(cols)) // stale contents are overwritten
			if zeroEvery > 0 {
				for i := b % int(zeroEvery); i < len(x[b]); i += int(zeroEvery) {
					x[b][i] = 0
				}
			}
		}
		m.VecMulBlock(dst, x)
		for b := range x {
			want := refVecMul(m, x[b])
			for j := range want {
				if math.Float64bits(dst[b][j]) != math.Float64bits(want[j]) {
					t.Fatalf("%dx%d block of %d, vector %d column %d: %v, scalar loop %v", rows, cols, n, b, j, dst[b][j], want[j])
				}
			}
		}
	})
}

// TestVecMulBlockNonFinitePanels puts +Inf and NaN in later panels than
// the first, behind finite ones, with zero coefficients in every group of
// four on their rows: every panel runs every term through the panel kernel
// or the one-row loop, so a zero term against panel 1's +Inf is NaN, as it
// is in the scalar loop.
func TestVecMulBlockNonFinitePanels(t *testing.T) {
	r := rng.NewSeeded(12)
	const rows, cols = 3*panelRows + 7, 37
	m := gaussianMatrix(r, rows, cols)
	m.set(panelRows+5, 3, math.Inf(1))
	m.set(3*panelRows+2, 30, math.NaN())
	x, dst := make([][]float64, 9), make([][]float64, 9)
	for b := range x {
		x[b], dst[b] = rng.Gaussian(r, nil, rows), make([]float64, cols)
		for i := range x[b] {
			if (i+b)%3 == 0 {
				x[b][i] = 0
			}
		}
	}
	m.VecMulBlock(dst, x)
	for b := range x {
		want := refVecMul(m, x[b])
		for j := range want {
			if math.Float64bits(dst[b][j]) != math.Float64bits(want[j]) {
				t.Fatalf("vector %d column %d: %v, scalar loop %v", b, j, dst[b][j], want[j])
			}
		}
	}
}

func TestVecMulBitIdenticalToScalarLoop(t *testing.T) {
	r := rng.NewSeeded(8)
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+r.IntN(40), 1+r.IntN(70)
		m := gaussianMatrix(r, rows, cols)
		x := rng.Gaussian(r, nil, rows)
		for i := range x {
			if r.IntN(5) == 0 {
				x[i] = 0
			}
		}
		got, want := m.vecMul(nil, x), refVecMul(m, x)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (%dx%d) column %d: %v, scalar loop %v", trial, rows, cols, j, got[j], want[j])
			}
		}
	}
}

// TestMulVecAssociation pins MulVec to the eight-lane association it
// documents, computed here the slow way.
func TestMulVecAssociation(t *testing.T) {
	r := rng.NewSeeded(9)
	for _, cols := range []int{1, 7, 8, 9, 31, 64, 100} {
		m := gaussianMatrix(r, 5, cols)
		x := rng.Gaussian(r, nil, cols)
		got := m.MulVec(nil, x)
		for i := range got {
			var lane [8]float64
			row := m.Row(i)
			full := cols &^ 7
			for j := 0; j < full; j++ {
				lane[j%8] += row[j] * x[j]
			}
			for j := full; j < cols; j++ {
				lane[0] += row[j] * x[j]
			}
			want := ((lane[0] + lane[4]) + (lane[2] + lane[6])) + ((lane[1] + lane[5]) + (lane[3] + lane[7]))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("cols=%d row %d: %v, eight-lane sum %v", cols, i, got[i], want)
			}
		}
	}
}

// BenchmarkRandomInvertible is key generation's unit of work: sample,
// factorize and invert one n×n matrix on GOMAXPROCS workers.
func BenchmarkRandomInvertible(b *testing.B) {
	r := rng.NewSeeded(10)
	for i := 0; i < b.N; i++ {
		RandomInvertible(r, 512)
	}
}

// BenchmarkVecMulBlock is DCE encryption's product at d=960: one 968×1936
// half of M₃ against a block of one vector and of sixteen, ns per block.
func BenchmarkVecMulBlock(b *testing.B) {
	r := rng.NewSeeded(11)
	m := gaussianMatrix(r, 968, 1936)
	for _, block := range []int{1, 16} {
		b.Run(fmt.Sprintf("968x1936/block%d", block), func(b *testing.B) {
			x, dst := make([][]float64, block), make([][]float64, block)
			for i := range x {
				x[i], dst[i] = rng.Gaussian(r, nil, 968), make([]float64, 1936)
			}
			for i := 0; i < b.N; i++ {
				m.VecMulBlock(dst, x)
			}
		})
	}
}

// BenchmarkSolveMat is DCE key generation's solve at d=960: the 968
// right-hand sides of the folded query matrix against a 1936² factorization.
func BenchmarkSolveMat(b *testing.B) {
	r := rng.NewSeeded(12)
	_, f := RandomFactored(r, 1936)
	rhs := gaussianMatrix(r, 1936, 968)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveMat(rhs)
	}
}

// The constructors and products below are the tests' own: the serving
// path needs none of them.

// fromRows builds a matrix by copying the given rows, which must share one
// length.
func fromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		panic("matrix: fromRows needs at least one row")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: row %d has %d columns, want %d", i, len(r), m.cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// set assigns element (i, j).
func (m *Dense) set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// transpose returns mᵀ as a new matrix.
func (m *Dense) transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// vecMul is VecMulBlock for a block of one: it stores xᵀ·A into dst
// (length cols; nil allocates it) and returns dst.
func (m *Dense) vecMul(dst, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.cols)
	}
	m.VecMulBlock([][]float64{dst}, [][]float64{x})
	return dst
}

// mul returns the matrix product A·B through the panel kernel the LU's
// updates run.
func mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: product of %dx%d and %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	axpyRowsEach(0, a.rows, c.Row, a.data, a.cols, a.cols, b.data, b.cols)
	return c
}
