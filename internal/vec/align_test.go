package vec

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// TestRowsDiscipline pins the arena's publication discipline and its
// allocations for both element types: a published header keeps its Len and
// its rows through Extend, Reserve and a regrowth; Gather is exactly full,
// zero at −1 and private; the base stays aligned with the slack after it;
// and a loader's overstated limit costs at most twice what arrived.
func TestRowsDiscipline(t *testing.T) {
	t.Run("float64", func(t *testing.T) { rowsDiscipline[float64](t, 5, PadStride(5)) })
	t.Run("byte", func(t *testing.T) { rowsDiscipline[byte](t, 3, 3) })
}

func rowsDiscipline[T float64 | byte](t *testing.T, width, stride int) {
	row := func(i int) []T {
		v := make([]T, width)
		for k := range v {
			v[k] = T((i*width+k)%250 + 1)
		}
		return v
	}
	// holds checks that r holds exactly the rows row(0..n-1), pads zero.
	holds := func(what string, r *Rows[T], n int) {
		t.Helper()
		if r.Len() != n || len(r.Raw()) != n*stride {
			t.Fatalf("%s: Len %d (%d elements), want %d rows", what, r.Len(), len(r.Raw()), n)
		}
		for i := range n {
			for k, x := range r.Raw()[i*stride : (i+1)*stride] {
				if want := T(0); k < width {
					want = row(i)[k]
					if x != want {
						t.Fatalf("%s: row %d element %d is %v, want %v", what, i, k, x, want)
					}
				} else if x != 0 {
					t.Fatalf("%s: row %d pad element %d is %v", what, i, k, x)
				}
			}
		}
	}
	// allocated checks the base alignment, the capacity of exactly rows
	// rows and the 8 bytes of slack after them.
	size := int(unsafe.Sizeof(*new(T)))
	allocated := func(what string, r *Rows[T], rows int) {
		t.Helper()
		if !aligned(r.Raw()) {
			t.Fatalf("%s: base not 64-byte aligned", what)
		}
		if got, want := cap(r.Raw()), rows*stride+8/size; got != want {
			t.Fatalf("%s: capacity %d elements, want %d rows of %d and 8 bytes", what, got, rows, stride)
		}
	}

	r := NewRows[T](width, stride, 3)
	allocated("NewRows", r, 3)
	for i := range 3 {
		copy(r.Row(i), row(i))
	}
	holds("NewRows", r, 3)

	// Publication copies the header and appends to the copy. A full
	// arena regrows to twice its rows, privately.
	pub := r
	ext := *pub
	ext.Append(row(3))
	allocated("regrown append", &ext, 6)
	holds("regrown append", &ext, 4)
	holds("published header after a regrowing append", pub, 3)

	// After Reserve an append writes in place, past the published length.
	ext.Reserve(10)
	allocated("Reserve", &ext, 14)
	pub2 := ext
	ext2 := pub2
	ext2.Append(row(4))
	if &ext2.Raw()[0] != &pub2.Raw()[0] {
		t.Fatal("an append within capacity moved the arena")
	}
	holds("in-place append", &ext2, 5)
	holds("published header after an in-place append", &pub2, 4)
	holds("published header after both appends", pub, 3)

	g := ext2.Gather([]int{4, 2, 0})
	allocated("Gather", g, 3)
	if g.Len() != 3 || !slices.Equal(g.Row(0), row(4)) || !slices.Equal(g.Row(1), row(2)) || !slices.Equal(g.Row(2), row(0)) {
		t.Fatalf("Gather rows %v %v %v", g.Row(0), g.Row(1), g.Row(2))
	}
	g.Row(2)[0] = 0
	holds("Gather's source after a write to the gathered arena", &ext2, 5)

	// A loader's limit ends it exactly full; an overstated one costs at
	// most twice the rows that arrived.
	for _, arrived := range []int{1, 5, 17, 100} {
		for _, limit := range []int{arrived, math.MaxInt} {
			l := NewRows[T](width, stride, 0)
			for i := range arrived {
				copy(l.AppendZero(limit), row(i))
				allocated("bounded AppendZero", l, l.Cap())
				if l.Cap() > 2*l.Len() {
					t.Fatalf("limit %d: %d rows arrived, capacity %d", limit, l.Len(), l.Cap())
				}
			}
			holds("loaded", l, arrived)
			if limit == arrived && l.Cap() != arrived {
				t.Fatalf("loading %d of %d rows ended at capacity %d", arrived, limit, l.Cap())
			}
		}
	}
}

// aligned reports whether the slice's base address sits on a cache-line
// boundary, the arena allocation contract.
func aligned[T float64 | byte](s []T) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))%cacheLineBytes == 0
}
