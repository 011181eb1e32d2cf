package vec

import (
	"fmt"
	"math"
	"unsafe"
)

// cacheLineFloats is the padding/alignment quantum of every flat vector
// arena: 64 bytes, i.e. 8 float64s. Row and record strides are rounded up
// to it and arena base addresses aligned to it, so a SIMD kernel's vector
// loads never split a cache line at a row boundary.
const (
	cacheLineBytes  = 64
	cacheLineFloats = cacheLineBytes / 8
	// slackBytes is the capacity every arena keeps past its last row. The
	// AVX2 PQ scan gathers codes with 32-bit loads, so the final code of
	// the final row pulls in up to three bytes beyond the rows; the slack
	// keeps that over-read inside the allocation.
	slackBytes = 8
)

// PadStride rounds a row length up to the next cache-line multiple — the
// in-memory stride of a padded arena row. The pad floats are kept zero.
func PadStride(n int) int {
	return (n + cacheLineFloats - 1) &^ (cacheLineFloats - 1)
}

// Aligned reports whether the slice's base address sits on a cache-line
// boundary. Alignment tests use it to pin the arena allocation contract.
func Aligned[T float64 | byte](s []T) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))%cacheLineBytes == 0
}

// Rows is the one id-addressed row arena: the SAP rows of a Dataset, the
// DCE records of a ciphertext store and the PQ codes all live in one. Row
// i holds Width elements at Raw()[i·Stride:]; the Stride−Width pad
// elements are kept zero. The base is 64-byte aligned and at least 8 bytes
// of capacity follow the last row.
//
// A Rows value is a header over a shared backing array, and the serving
// tier publishes it copy-on-write:
//   - A published header is never mutated again. The next one is a copy of
//     its header (core's EncryptedDatabase.clone), and appends go to the
//     copy; the published header keeps its Len and its rows.
//   - An append writes only past every published length. When the
//     capacity is full it moves to a private array first, so the headers
//     still sharing the old one never see it.
//   - Appends on one chain are serialized by a single writer, and no
//     published header is extended twice: two clones of one header would
//     write the same slots.
//   - Gather is the one copy between arenas. Its result shares nothing
//     with its source.
type Rows[T float64 | byte] struct {
	width, stride int
	data          []T // Len()·stride elements; capacity cap()·stride + the slack
}

// NewRows returns an arena of n zeroed rows of width elements at the
// given stride, allocated exactly full.
func NewRows[T float64 | byte](width, stride, n int) *Rows[T] {
	if width <= 0 || stride < width || n < 0 {
		panic(fmt.Sprintf("vec: %d rows of width %d at stride %d", n, width, stride))
	}
	r := &Rows[T]{width: width, stride: stride}
	r.data = r.alloc(n)[:n*stride]
	return r
}

// alloc returns an empty, zeroed backing array with room for rows rows:
// 64-byte aligned, its capacity exactly rows·stride elements plus the
// slack. Go's allocator only aligns large objects to 16 bytes, so alloc
// over-allocates by up to a cache line and slices forward; the Go heap
// never moves objects, so the alignment holds for the array's lifetime.
func (r *Rows[T]) alloc(rows int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	n := rows*r.stride + slackBytes/size
	buf := make([]T, n+cacheLineBytes/size-1)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(unsafe.SliceData(buf))) % cacheLineBytes); rem != 0 {
		off = (cacheLineBytes - rem) / size
	}
	return buf[off : off : off+n]
}

// Cap returns the number of rows the backing array holds.
func (r *Rows[T]) Cap() int {
	return (cap(r.data) - slackBytes/int(unsafe.Sizeof(*new(T)))) / r.stride
}

// grow makes room for rows more rows. A full arena moves to a private one
// of twice its rows, but of no more than limit rows unless the rows need
// more: a loader passes the count a header states, so it ends exactly
// full, and a header that overstates it costs at most twice what arrived.
func (r *Rows[T]) grow(rows, limit int) {
	need := r.Len() + rows
	if need <= r.Cap() {
		return
	}
	r.data = append(r.alloc(max(need, min(2*r.Cap(), limit))), r.data...)
}

// Len returns the number of rows.
func (r *Rows[T]) Len() int { return len(r.data) / r.stride }

// Width returns the elements per row.
func (r *Rows[T]) Width() int { return r.width }

// Stride returns the in-memory row stride in elements (≥ Width).
func (r *Rows[T]) Stride() int { return r.stride }

// Raw exposes the flat arena, Len()·Stride() elements with the slack in
// its capacity, for the kernels and the serialization path. Callers must
// not resize it.
func (r *Rows[T]) Raw() []T { return r.data }

// Row returns row i (Width elements, pad excluded) as a view into the
// arena. Writes alter the arena; the view is capped so it cannot grow.
func (r *Rows[T]) Row(i int) []T {
	base := i * r.stride
	return r.data[base : base+r.width : base+r.width]
}

// AppendZero appends a zeroed row and returns a writable view of it,
// growing by grow's rule under limit rows.
func (r *Rows[T]) AppendZero(limit int) []T {
	r.grow(1, limit)
	n := len(r.data)
	r.data = r.data[:n+r.stride]
	clear(r.data[n:])
	return r.data[n : n+r.width : n+r.width]
}

// Append copies row into a fresh row and returns its id.
func (r *Rows[T]) Append(row []T) int {
	if len(row) != r.width {
		panic(fmt.Sprintf("vec: appending a row of %d elements to rows of width %d", len(row), r.width))
	}
	id := r.Len()
	copy(r.AppendZero(math.MaxInt), row)
	return id
}

// Reserve makes room for rows more appends, so that they cannot move the
// arena.
func (r *Rows[T]) Reserve(rows int) { r.grow(rows, math.MaxInt) }

// Gather returns an exactly full arena of its own whose row j is a copy of
// row ids[j].
func (r *Rows[T]) Gather(ids []int) *Rows[T] {
	ns := NewRows[T](r.width, r.stride, len(ids))
	for j, id := range ids {
		copy(ns.Row(j), r.Row(id))
	}
	return ns
}
