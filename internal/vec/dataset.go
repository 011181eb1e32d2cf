package vec

import "fmt"

// Dataset stores n vectors of fixed dimension dim in a single flat backing
// array. Rows are padded to a cache-line multiple (stride = PadStride(dim)
// float64s) and the arena base is 64-byte aligned, so row i starts exactly
// at data[i*stride] on a cache-line boundary and a SIMD kernel's vector
// loads never split a line across rows. The pad floats are always zero and
// never leave the package: At, Raw and the serialization paths all speak
// the compact dim-length representation.
type Dataset struct {
	dim    int
	stride int // row stride in float64s: PadStride(dim)
	data   []float64
}

// NewDataset returns an empty dataset of the given dimension with capacity
// for capHint vectors.
func NewDataset(dim, capHint int) *Dataset {
	if dim <= 0 {
		panic(fmt.Sprintf("vec: non-positive dataset dimension %d", dim))
	}
	if capHint < 0 {
		capHint = 0
	}
	stride := PadStride(dim)
	return &Dataset{dim: dim, stride: stride, data: AlignedFloats(stride * capHint)[:0]}
}

// DatasetFromSlices builds a dataset by copying the given vectors, which must
// all share the same dimension.
func DatasetFromSlices(vectors [][]float64) *Dataset {
	if len(vectors) == 0 {
		panic("vec: DatasetFromSlices needs at least one vector")
	}
	ds := NewDataset(len(vectors[0]), len(vectors))
	for _, v := range vectors {
		ds.Append(v)
	}
	return ds
}

// Dim returns the vector dimension.
func (d *Dataset) Dim() int { return d.dim }

// Stride returns the in-memory row stride in float64s (Dim rounded up to a
// cache line). The kernel dispatch and the alignment tests use it; row
// addressing outside this package should go through At.
func (d *Dataset) Stride() int { return d.stride }

// Len returns the number of vectors stored.
func (d *Dataset) Len() int { return len(d.data) / d.stride }

// At returns vector i as a slice view into the backing array. The caller
// must not grow it; writes alter the dataset.
func (d *Dataset) At(i int) []float64 {
	return d.data[i*d.stride : i*d.stride+d.dim : i*d.stride+d.dim]
}

// grow ensures capacity for rows more rows, reallocating aligned storage
// when needed (append would lose the 64-byte base alignment).
func (d *Dataset) grow(rows int) {
	need := len(d.data) + rows*d.stride
	if need <= cap(d.data) {
		return
	}
	newCap := 2 * cap(d.data)
	if newCap < need {
		newCap = need
	}
	nd := AlignedFloats(newCap)[:len(d.data)]
	copy(nd, d.data)
	d.data = nd
}

// Append copies v into the dataset and returns its index.
func (d *Dataset) Append(v []float64) int {
	if len(v) != d.dim {
		panic(fmt.Sprintf("vec: appending %d-dim vector to %d-dim dataset", len(v), d.dim))
	}
	d.grow(1)
	n := d.Len()
	d.data = d.data[:len(d.data)+d.stride]
	row := d.data[n*d.stride:]
	copy(row, v)
	for i := d.dim; i < d.stride; i++ {
		row[i] = 0
	}
	return n
}

// AppendZero appends an all-zero vector and returns both its index and a
// writable view of the new row, avoiding a copy when the caller fills it in
// place.
func (d *Dataset) AppendZero() (int, []float64) {
	d.grow(1)
	n := d.Len()
	d.data = d.data[:len(d.data)+d.stride]
	row := d.data[n*d.stride:]
	for i := range row {
		row[i] = 0
	}
	return n, d.At(n)
}

// SqDistBlock computes dst[j] = SqDist(q, At(ids[j])) for every id in one
// pass over the flat backing array, reusing dst's capacity. Results are
// bit-identical to per-row SqDist calls (both kernel variants match
// the scalar reference's element order); the win is structural: one call
// evaluates a whole gathered neighbor or candidate list, the row
// addressing stays inside the kernel, and q stays hot in registers/L1
// across rows. Graph hops and inverted-list scans are the intended callers.
func (d *Dataset) SqDistBlock(dst []float64, q []float64, ids []int32) []float64 {
	if len(q) != d.dim {
		panic(fmt.Sprintf("vec: block sqdist of %d-dim query on %d-dim dataset", len(q), d.dim))
	}
	if cap(dst) < len(ids) {
		dst = make([]float64, len(ids), len(ids)+len(ids)/2+8)
	} else {
		dst = dst[:len(ids)]
	}
	sqDistBlockKernel(dst, d.data, d.stride, d.dim, q, ids)
	return dst
}

// FlattenCSR flattens a slice-of-slices id structure (adjacency lists,
// inverted-list memberships) into compressed-sparse-row form: list i
// occupies flat[offs[i]:offs[i+1]]. The frozen search views are built on
// this shape so scans walk one contiguous array instead of chasing the
// outer slice's pointers.
func FlattenCSR(lists [][]int32) (offs []int32, flat []int32) {
	offs = make([]int32, len(lists)+1)
	total := int32(0)
	for i, lst := range lists {
		total += int32(len(lst))
		offs[i+1] = total
	}
	flat = make([]int32, total)
	for i, lst := range lists {
		copy(flat[offs[i]:offs[i+1]], lst)
	}
	return offs, flat
}

// Slices returns all rows as slice views (no copying).
func (d *Dataset) Slices() [][]float64 {
	out := make([][]float64, d.Len())
	for i := range out {
		out[i] = d.At(i)
	}
	return out
}

// Raw returns the compact flat representation (length Len()*Dim(), no row
// padding), the layout the serialization code writes. When rows are padded
// in memory this is a copy; when dim is already a cache-line multiple it is
// the backing array itself.
func (d *Dataset) Raw() []float64 {
	if d.stride == d.dim {
		return d.data
	}
	n := d.Len()
	out := make([]float64, n*d.dim)
	for i := 0; i < n; i++ {
		copy(out[i*d.dim:], d.At(i))
	}
	return out
}

// DatasetFromRaw builds a dataset from a compact flat array (row i at
// raw[i*dim:(i+1)*dim], as Raw returns). len(raw) must be a multiple of
// dim. The data is repacked into an aligned padded arena, so the input is
// not retained.
func DatasetFromRaw(dim int, raw []float64) (*Dataset, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vec: non-positive dimension %d", dim)
	}
	if len(raw)%dim != 0 {
		return nil, fmt.Errorf("vec: raw length %d is not a multiple of dim %d", len(raw), dim)
	}
	n := len(raw) / dim
	stride := PadStride(dim)
	data := AlignedFloats(n * stride)
	for i := 0; i < n; i++ {
		copy(data[i*stride:i*stride+dim], raw[i*dim:(i+1)*dim])
	}
	return &Dataset{dim: dim, stride: stride, data: data}, nil
}
