// Package kerneltest holds the inputs every bit-identity test of the
// assembly kernels draws from: special float64 values, rows that mix them
// into random values behind misaligned starts, and the strides a block
// kernel's rows are laid out at. Only tests import it.
package kerneltest

import (
	"math"

	"ppanns/internal/rng"
)

// Specials are the values a body must carry exactly as its Go reference
// does. A test takes the class it needs as a prefix:
//
//	Specials[:Tiny]    ±0 and the smallest and largest subnormals
//	Specials[:NonNaN]  those, the smallest normal, ±1, 0.1 and −7 (quotients
//	                   that round), ±MaxFloat64 and ±Inf
//	Specials           those and NaNs of three payloads; where both
//	                   operands are NaN, the payload shows which one a body
//	                   returned
var Specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	2.2250738585072014e-308, 1, -1, 0.1, -7, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000003),
}

// The classes of Specials, as prefix lengths.
const (
	Tiny   = 6
	NonNaN = 15
)

// Offsets are the element offsets a test starts its rows at: 0 sits on the
// allocation's alignment, 1 and 3 on no 16-byte boundary.
var Offsets = []int{0, 1, 3}

// Strides returns the row strides a block kernel's n-float rows are tested
// at: tight, padded to a whole 64-byte line, and five floats wider, odd
// where n is even.
func Strides(n int) []int { return []int{n, (n + 7) &^ 7, n + 5} }

// Row returns n values that start off elements into their backing array,
// uniform in ±scale/2, about a third of them then replaced by Mix.
func Row(r *rng.Rand, n, off int, scale float64, vals []float64) []float64 {
	row := make([]float64, n+off)[off:]
	for i := range row {
		row[i] = (r.Float64() - 0.5) * scale
	}
	Mix(r, row, vals)
	return row
}

// Mix replaces about every third element of x, in place, with one of vals
// drawn at random; it leaves x as it is when vals is empty.
func Mix(r *rng.Rand, x, vals []float64) {
	if len(vals) == 0 {
		return
	}
	for i := range x {
		if r.IntN(3) == 0 {
			x[i] = vals[r.IntN(len(vals))]
		}
	}
}

// SameBits reports whether got and want are the same float64, or both
// NaN whatever their payloads.
func SameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// ApproxEqual reports whether a and b agree element-wise within tol.
func ApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if math.Abs(av-b[i]) > tol {
			return false
		}
	}
	return true
}
