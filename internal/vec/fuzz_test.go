package vec

import (
	"bytes"
	"testing"
)

// FuzzReadFvecs checks that the fvecs parser never panics and that
// anything it accepts round-trips through WriteFvecs.
func FuzzReadFvecs(f *testing.F) {
	// Seed corpus: a valid two-vector stream, an empty stream, a truncated
	// header and a hostile dimension.
	var valid bytes.Buffer
	if err := WriteFvecs(&valid, DatasetFromSlices([][]float64{{1, 2}, {3, 4}})); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := readFvecs(bytes.NewReader(data), 1000)
		if err != nil {
			return // rejected input: fine, as long as there is no panic
		}
		var out bytes.Buffer
		if err := WriteFvecs(&out, ds); err != nil {
			t.Fatalf("accepted dataset failed to re-encode: %v", err)
		}
		ds2, err := readFvecs(bytes.NewReader(out.Bytes()), 0)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if ds2.Len() != ds.Len() || ds2.Dim() != ds.Dim() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				ds.Len(), ds.Dim(), ds2.Len(), ds2.Dim())
		}
	})
}
