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

// Lookup checks a backend name; the empty string selects Default. The
// names "nsg" and "lsh" are refused with a re-encrypt message: those
// backends were serving tags once and remain only as rows of the Section
// V-A ablation (internal/bench), so a database carrying either tag must be
// re-encrypted with a serving backend.
func Lookup(name string) error {
	switch name {
	case "", "hnsw", "ivf":
		return nil
	case "nsg", "lsh":
		return fmt.Errorf("index: backend %q no longer serves: re-encrypt with hnsw or ivf", name)
	}
	return fmt.Errorf("index: unknown backend %q (have %v)", name, Names())
}

// BuildOver constructs the named backend ("" = Default) over the column
// rows, which the index keeps and never writes: row i is id i, live[i]
// false makes id i a dead slot, whose row should be zero, and a nil live
// makes every row live (see SecureIndex). The dimension is the column's.
func BuildOver(name string, rows *vec.Dataset, live []bool, opts Options) (SecureIndex, error) {
	if err := Lookup(name); err != nil {
		return nil, err
	}
	if name == "ivf" {
		return buildIVF(rows, live, opts)
	}
	return buildHNSW(rows, live, opts)
}

// Build is BuildOver over a fresh column of opts.Dim holding the vectors,
// where a nil row is a dead slot held by a zero row. It stays for the
// benchmark harness, which builds from slices, and leaves with the
// harness's next change.
func Build(name string, vectors [][]float64, opts Options) (SecureIndex, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("index: non-positive dimension %d", opts.Dim)
	}
	rows, live := vec.ZeroDataset(opts.Dim, len(vectors)), make([]bool, len(vectors))
	for i, v := range vectors {
		if live[i] = v != nil; live[i] && len(v) != opts.Dim {
			return nil, fmt.Errorf("index: vector %d has dim %d, want %d", i, len(v), opts.Dim)
		}
		copy(rows.At(i), v)
	}
	return BuildOver(name, rows, live, opts)
}

// Load reads a section written by the named backend's Save ("" = Default)
// for a database of len(live) records of dimension dim, live[id] false at
// every dead slot, and returns the index and the column of rows the
// section carries, which the index keeps. The section's bytes are
// untrusted; the dimension and the liveness come from the database file
// that carries it, which states them once for every section.
func Load(name string, d *frame.Decoder, dim int, live []bool) (SecureIndex, *vec.Dataset, error) {
	if err := Lookup(name); err != nil {
		return nil, nil, err
	}
	if name == "ivf" {
		return loadIVF(d, dim, live)
	}
	return loadHNSW(d, dim, live)
}
