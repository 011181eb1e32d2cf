package vec

import "unsafe"

// cacheLineFloats is the padding/alignment quantum of every flat vector
// arena: 64 bytes, i.e. 8 float64s. Row and record strides are rounded up
// to it and arena base addresses aligned to it, so a SIMD kernel's vector
// loads never split a cache line at a row boundary.
const (
	cacheLineBytes  = 64
	cacheLineFloats = cacheLineBytes / 8
)

// PadStride rounds a row length up to the next cache-line multiple — the
// in-memory stride of a padded arena row. The pad floats are kept zero.
func PadStride(n int) int {
	return (n + cacheLineFloats - 1) &^ (cacheLineFloats - 1)
}

// AlignedFloats returns a zeroed []float64 of length n (with any extra
// capacity the alignment slack provides) whose base address is 64-byte
// aligned. Go's allocator only guarantees 16-byte alignment for large
// slices, so the helper over-allocates by up to seven floats and slices
// forward; the Go heap never moves objects, so the alignment holds for the
// slice's lifetime.
func AlignedFloats(n int) []float64 {
	buf := make([]float64, n+cacheLineFloats-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(unsafe.SliceData(buf))) % cacheLineBytes; rem != 0 {
		off = int((cacheLineBytes - rem) / 8)
	}
	return buf[off : off+n]
}

// ExtendAligned returns s lengthened by n floats. A full s moves to a
// fresh, zeroed AlignedFloats arena of twice its length, but never past
// limit floats (limit ≥ len(s)+n): a loader that knows the final size
// from a header lengthens its arena as the rows arrive and ends with one
// exactly full, and a header that overstates the size costs at most twice
// what did arrive.
func ExtendAligned(s []float64, n, limit int) []float64 {
	if len(s)+n > cap(s) {
		grown := AlignedFloats(min(limit, max(2*len(s), len(s)+n, 16*n)))
		s = grown[:copy(grown, s)]
	}
	return s[:len(s)+n]
}

// Aligned reports whether the slice's base address sits on a cache-line
// boundary. Alignment tests use it to pin the arena allocation contract.
func Aligned(s []float64) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))%cacheLineBytes == 0
}
