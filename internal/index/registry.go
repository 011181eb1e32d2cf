package index

import (
	"fmt"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// Default is the backend used when no name is given: HNSW, the paper's
// choice.
const Default = "hnsw"

// Names returns the backend names, sorted.
func Names() []string { return []string{"hnsw", "ivf"} }

// Lookup checks a backend name; the empty string selects Default. Any
// other name is refused as unknown.
func Lookup(name string) error {
	switch name {
	case "", "hnsw", "ivf":
		return nil
	}
	return fmt.Errorf("index: unknown backend %q (have %v)", name, Names())
}

// BuildOver constructs the named backend ("" = Default) over the column
// rows, which the index keeps and never writes: row i is id i. ids[i] is
// the record id row i carries, strictly increasing (nil: i), which a
// backend may key seeded choices by, so that a record keeps them across
// re-layouts (HNSW draws its level there; see hnsw.Build). The dimension
// is the column's.
func BuildOver(name string, rows *vec.Dataset, ids []int32, opts Options) (SecureIndex, error) {
	if err := Lookup(name); err != nil {
		return nil, err
	}
	if name == "ivf" {
		return buildIVF(rows, opts)
	}
	return buildHNSW(rows, ids, opts)
}

// Build is BuildOver over a fresh column of opts.Dim holding the vectors,
// none of which may be nil. It stays for the benchmark harness, which
// builds from slices, and leaves with the harness's next change.
func Build(name string, vectors [][]float64, opts Options) (SecureIndex, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("index: non-positive dimension %d", opts.Dim)
	}
	rows := vec.ZeroDataset(opts.Dim, len(vectors))
	for i, v := range vectors {
		if len(v) != opts.Dim {
			return nil, fmt.Errorf("index: vector %d has dim %d, want %d", i, len(v), opts.Dim)
		}
		copy(rows.At(i), v)
	}
	return BuildOver(name, rows, nil, opts)
}

// Load reads a section written by the named backend's Save ("" = Default)
// for an index over rows, one id per row, and returns the index, which
// keeps the rows as BuildOver does. The section's bytes are untrusted; the
// rows come from the database file that carries it, which states them
// once for every section.
func Load(name string, d *frame.Decoder, rows *vec.Dataset) (SecureIndex, error) {
	if err := Lookup(name); err != nil {
		return nil, err
	}
	if name == "ivf" {
		return loadIVF(d, rows)
	}
	return loadHNSW(d, rows)
}
