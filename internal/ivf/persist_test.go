package ivf

import (
	"bytes"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// handSection writes an ivf section by hand: one list under one centroid
// of dimension 2.
func handSection(t *testing.T, list []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	e.Int(1)
	e.FloatRun(make([]float64, 2))
	e.U32(uint32(len(list)))
	e.Int32Run(list)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadChecksLists: the lists must hold every id once, in id order,
// and no out-of-range id — what populate leaves, and the only way a search
// can neither miss an id nor return one the rows do not hold.
func TestLoadChecksLists(t *testing.T) {
	for _, c := range []struct {
		name string
		list []int32
		ok   bool
	}{
		{"every id", []int32{0, 1, 2}, true},
		{"an id missing", []int32{0, 1}, false},
		{"out of order", []int32{1, 0, 2}, false},
		{"twice", []int32{0, 1, 1}, false},
		{"out of range", []int32{0, 1, 7}, false},
		{"negative", []int32{-1, 0, 1}, false},
	} {
		d := frame.NewDecoder(bytes.NewReader(handSection(t, c.list)))
		ix, err := Load(d, vec.ZeroDataset(2, 3))
		if err == nil {
			err = d.Done()
		}
		if (err == nil) != c.ok {
			t.Errorf("%s: %v", c.name, err)
		}
		if err == nil && (ix.Len() != 3 || ix.Vector(2) == nil || ix.Vector(3) != nil) {
			t.Errorf("%s: loaded Len %d", c.name, ix.Len())
		}
	}
}
