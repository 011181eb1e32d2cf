// Package vec provides the dense float64 vector math and dataset container
// used by every scheme and index in the library, plus a reader and writer
// for the standard ANN-benchmark fvecs file format.
//
// Vectors are plain []float64 slices. Rows is the one row arena of the
// server's stores, with their copy-on-write publication discipline; the
// Dataset type keeps n vectors of a fixed dimension in one, for the cache
// locality proximity-graph search is sensitive to.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += float64(av * b[i])
	}
	return s
}

// SqDist returns the squared Euclidean distance between a and b, the
// distance the paper's dist(p,q) denotes. The call runs the process's
// kernel variant (see kernels.go): the scalar reference unrolls
// eight-wide with independent accumulators so the floating-point add chain
// pipelines, and the SIMD variants reproduce its lane structure exactly —
// proximity-graph search evaluates this kernel thousands of times per
// query, making it the dominant term of the filter phase.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: sqdist of mismatched lengths %d and %d", len(a), len(b)))
	}
	if len(a) < 8 {
		// Below one vector step every variant is the sequential remainder
		// loop plus a reduction of zeros: same bits, no kernel call.
		return sqDistTail(0, a, b, 0)
	}
	return sqDistKernel(a, b)
}

// SqDistRows computes dst[j] = SqDist(q, row j) for the len(dst) rows of a
// contiguous block (row j at rows[j·len(q):]) — a centroid table, say —
// bit-identical to per-row SqDist calls, with the length check paid once
// for the block.
func SqDistRows(dst, rows, q []float64) {
	w := len(q)
	if len(rows) != len(dst)*w {
		panic(fmt.Sprintf("vec: %d rows of %d elements in a block of %d", len(dst), w, len(rows)))
	}
	if w < 8 {
		for j := range dst {
			dst[j] = sqDistTail(0, q, rows[j*w:(j+1)*w], 0)
		}
		return
	}
	for j := range dst {
		dst[j] = sqDistKernel(q, rows[j*w:(j+1)*w])
	}
}

// SqNorm returns the squared Euclidean norm of a.
func SqNorm(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += float64(v * v)
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 { return math.Sqrt(SqNorm(a)) }

// Add stores a+b into dst and returns dst; dst may alias a or b and may be
// nil, in which case a new slice is allocated.
func Add(dst, a, b []float64) []float64 {
	dst = ensure(dst, len(a))
	for i, av := range a {
		dst[i] = av + b[i]
	}
	return dst
}

// Scale stores s·a into dst and returns dst.
func Scale(dst []float64, s float64, a []float64) []float64 {
	dst = ensure(dst, len(a))
	for i, av := range a {
		dst[i] = s * av
	}
	return dst
}

// AXPY stores a + s·x into dst and returns dst.
func AXPY(dst []float64, s float64, x, a []float64) []float64 {
	dst = ensure(dst, len(a))
	for i, av := range a {
		dst[i] = av + float64(s*x[i])
	}
	return dst
}

// Normalize scales a in place to unit Euclidean norm and returns it.
// A zero vector is returned unchanged.
func Normalize(a []float64) []float64 {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// MaxAbs returns the maximum absolute coordinate across all vectors, the
// quantity M = max_p max_i |p_i| that bounds DCPE's β range.
func MaxAbs(vectors [][]float64) float64 {
	var m float64
	for _, v := range vectors {
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
	}
	return m
}

func ensure(dst []float64, n int) []float64 {
	if dst == nil {
		return make([]float64, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("vec: destination length %d, want %d", len(dst), n))
	}
	return dst
}
