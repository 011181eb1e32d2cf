package frame

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRoundTrip: everything the Append functions write reads back as it
// was, and the layout is read exactly to its end.
func TestRoundTrip(t *testing.T) {
	b := AppendU8(nil, 7)
	b = AppendU32(b, 1<<31)
	b = AppendU64(b, math.MaxUint64)
	b = AppendInt(b, -3)
	b = AppendF64(b, math.Inf(-1))
	b = AppendFloatRun(b, []float64{1.5, -2})
	b = AppendFloats(b, []float64{math.Pi})
	b = AppendFloats(b, nil)
	b = AppendInts(b, []int{-1, 0, math.MaxInt})
	b = AppendString(b, "pq")
	b = AppendString(b, "hnsw")
	b = append(b, "MAGIC"...)

	r := NewReader(b)
	u8, u32, u64, i, f := r.U8(), r.U32(), r.U64(), r.Int(), r.F64()
	run, fl, empty, ints := r.FloatRun(2), r.Floats(), r.Floats(), r.Ints()
	bs, s, magic := r.Bytes(), r.String(), r.Magic("MAGIC")
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if u8 != 7 || u32 != 1<<31 || u64 != math.MaxUint64 || i != -3 || !math.IsInf(f, -1) ||
		!slices.Equal(run, []float64{1.5, -2}) || !slices.Equal(fl, []float64{math.Pi}) || empty != nil ||
		!slices.Equal(ints, []int{-1, 0, math.MaxInt}) || string(bs) != "pq" || s != "hnsw" || !magic {
		t.Fatalf("read back %v %v %v %v %v %v %v %v %v %q %q %v", u8, u32, u64, i, f, run, fl, empty, ints, bs, s, magic)
	}
}

// TestLengthsAreChecked: a length that the bytes left cannot hold, or
// that exceeds MaxLen, fails the reader before anything is allocated,
// the first error sticks, and bytes left over are an error.
func TestLengthsAreChecked(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
		read func(r *Reader)
		want string
	}{
		{"count past the bytes", AppendU32(nil, 3), func(r *Reader) { r.Floats() }, "truncated"},
		{"count past the limit", AppendU32(nil, MaxLen+1), func(r *Reader) { r.Bytes() }, "limit"},
		{"run past the limit", nil, func(r *Reader) { r.FloatRun(MaxLen) }, "limit"},
		{"negative run", nil, func(r *Reader) { r.FloatRun(-1) }, "limit"},
		{"short integer", []byte{1, 2}, func(r *Reader) { r.U32() }, "truncated"},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8() }, "trailing"},
		{"first error sticks", []byte{1}, func(r *Reader) { r.U64(); r.U8() }, "truncated"},
	} {
		r := NewReader(c.b)
		c.read(r)
		if err := r.Done(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
