package vec

import (
	"bytes"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/kerneltest"
)

func TestDatasetBasics(t *testing.T) {
	ds := newDataset(3, 4)
	if ds.Dim() != 3 || ds.Len() != 0 {
		t.Fatalf("fresh dataset dim=%d len=%d", ds.Dim(), ds.Len())
	}
	i := ds.Append([]float64{1, 2, 3})
	j := ds.Append([]float64{4, 5, 6})
	if i != 0 || j != 1 || ds.Len() != 2 {
		t.Fatalf("append indices %d %d len %d", i, j, ds.Len())
	}
	if !kerneltest.ApproxEqual(ds.At(1), []float64{4, 5, 6}, 0) {
		t.Fatalf("At(1) = %v", ds.At(1))
	}
}

func TestDatasetAppendZero(t *testing.T) {
	ds := newDataset(2, 1)
	idx, row := ds.AppendZero()
	row[0], row[1] = 9, 8
	if idx != 0 || !kerneltest.ApproxEqual(ds.At(0), []float64{9, 8}, 0) {
		t.Fatalf("AppendZero row not writable in place: %v", ds.At(0))
	}
}

func TestDatasetDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newDataset(3, 1).Append([]float64{1})
}

// TestDatasetFromSlicesAndClone: DatasetFromSlices clones its input — the
// dataset shares no storage with the slices it was built from.
func TestDatasetFromSlicesAndClone(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	ds := DatasetFromSlices(src)
	src[0][0] = 99
	if ds.At(0)[0] != 1 {
		t.Fatal("DatasetFromSlices shares storage with its input")
	}
	views := ds.Slices()
	if len(views) != 2 || views[1][1] != 4 {
		t.Fatalf("Slices = %v", views)
	}
}

// TestDatasetSaveLoad: Save writes the rows without their pad, and
// LoadDataset reads them back into an aligned, padded arena; rows the
// input does not hold fail the decoder instead of loading as zeros.
func TestDatasetSaveLoad(t *testing.T) {
	ds := DatasetFromSlices([][]float64{{1, 2, 3}, {4, 5, 6}, {-7, 8.5, 0}})
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	ds.Save(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if want := 3*3*8 + 4; buf.Len() != want {
		t.Fatalf("saved %d bytes, want %d", buf.Len(), want)
	}
	d := frame.NewDecoder(bytes.NewReader(buf.Bytes()))
	back := LoadDataset(d, 3, 3)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || !aligned(back.rows.Raw()) || !kerneltest.ApproxEqual(back.At(2), ds.At(2), 0) {
		t.Fatalf("loaded %d rows, aligned %v, row 2 %v", back.Len(), aligned(back.rows.Raw()), back.At(2))
	}
	d = frame.NewDecoder(bytes.NewReader(buf.Bytes()))
	LoadDataset(d, 3, 4)
	if d.Err() == nil {
		t.Fatal("a fourth row loaded from a three-row input")
	}
}

func TestFvecsRoundTrip(t *testing.T) {
	ds := DatasetFromSlices([][]float64{{1.5, -2.25, 3}, {0, 7.5, -1}})
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := readFvecs(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Dim() != 3 {
		t.Fatalf("round trip shape %dx%d", got.Len(), got.Dim())
	}
	for i := 0; i < 2; i++ {
		if !kerneltest.ApproxEqual(got.At(i), ds.At(i), 1e-6) {
			t.Fatalf("row %d = %v, want %v", i, got.At(i), ds.At(i))
		}
	}
}

func TestFvecsMaxVectors(t *testing.T) {
	ds := DatasetFromSlices([][]float64{{1}, {2}, {3}})
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := readFvecs(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("maxVectors ignored: len %d", got.Len())
	}
}

func TestFvecsTruncated(t *testing.T) {
	ds := DatasetFromSlices([][]float64{{1, 2, 3}})
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := readFvecs(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestFvecsEmpty(t *testing.T) {
	if _, err := readFvecs(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestBadDimHeader(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF} // dim = -1
	if _, err := readFvecs(bytes.NewReader(raw), 0); err == nil {
		t.Fatal("expected error for negative dimension")
	}
}
