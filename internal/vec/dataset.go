package vec

import (
	"math"
	"slices"

	"ppanns/internal/frame"
)

// Dataset stores n vectors of fixed dimension dim in a Rows arena at the
// padded stride PadStride(dim), so row i starts on a cache-line boundary
// and a SIMD kernel's vector loads never split a line across rows. The pad
// floats never leave the package: At, Save and LoadDataset all speak the
// compact dim-length representation.
type Dataset struct {
	rows Rows[float64]
}

// NewDataset returns an empty dataset of the given dimension with capacity
// for capHint vectors.
func NewDataset(dim, capHint int) *Dataset {
	d := &Dataset{rows: *NewRows[float64](dim, PadStride(dim), 0)}
	d.rows.Reserve(capHint)
	return d
}

// ZeroDataset returns a dataset of n zero vectors of dimension dim,
// allocated exactly full.
func ZeroDataset(dim, n int) *Dataset {
	return &Dataset{rows: *NewRows[float64](dim, PadStride(dim), n)}
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
func (d *Dataset) Dim() int { return d.rows.width }

// Stride returns the in-memory row stride in float64s (Dim rounded up to a
// cache line). The kernel dispatch and the alignment tests use it; row
// addressing outside this package should go through At.
func (d *Dataset) Stride() int { return d.rows.stride }

// Len returns the number of vectors stored.
func (d *Dataset) Len() int { return d.rows.Len() }

// Cap returns the number of vectors the arena holds (Rows.Cap).
func (d *Dataset) Cap() int { return d.rows.Cap() }

// At returns vector i as a slice view into the backing array. The caller
// must not grow it; writes alter the dataset.
func (d *Dataset) At(i int) []float64 { return d.rows.Row(i) }

// Append copies v into the dataset and returns its index.
func (d *Dataset) Append(v []float64) int { return d.rows.Append(v) }

// Reserve makes room for n more appends, so that they cannot move the
// arena (Rows.Reserve).
func (d *Dataset) Reserve(n int) { d.rows.Reserve(n) }

// Gather returns a dataset with an exactly full arena of its own whose
// row j is a copy of row ids[j] (Rows.Gather).
func (d *Dataset) Gather(ids []int) *Dataset { return &Dataset{rows: *d.rows.Gather(ids)} }

// AppendZero appends an all-zero vector and returns both its index and a
// writable view of the new row, avoiding a copy when the caller fills it in
// place.
func (d *Dataset) AppendZero() (int, []float64) {
	return d.Len(), d.rows.AppendZero(math.MaxInt)
}

// SqDistBlock computes dst[j] = SqDist(q, At(ids[j])) for every id in one
// pass over the flat backing array, reusing dst's capacity: the exact
// scanner's DistBlock (see Exact), bit-identical to per-row SqDist calls.
// One call evaluates a whole gathered neighbor or candidate list, the row
// addressing stays inside the kernel, and q stays hot in registers/L1.
func (d *Dataset) SqDistBlock(dst []float64, q []float64, ids []int32) []float64 {
	dst = slices.Grow(dst[:0], len(ids))[:len(ids)]
	(&Exact{}).Bind(d, q).DistBlock(dst, ids)
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

// Save writes every row's dim floats, pad excluded, in id order.
func (d *Dataset) Save(e *frame.Encoder) {
	for i := range d.Len() {
		e.FloatRun(d.At(i))
	}
}

// LoadDataset reads the n rows Save wrote into a dataset of dimension
// dim. The arena grows as the rows arrive, under n (Rows.AppendZero), so a
// row count the input does not back costs at most twice what did arrive.
func LoadDataset(dec *frame.Decoder, dim, n int) *Dataset {
	d := NewDataset(dim, 0)
	for i := 0; i < n && dec.Err() == nil; i++ {
		dec.FloatRun(d.rows.AppendZero(n))
	}
	return d
}
