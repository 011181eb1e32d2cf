package index

import (
	"fmt"

	"ppanns/internal/frame"
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

// Build constructs the named backend over the vectors ("" = Default); a
// nil row is a dead slot (see SecureIndex).
func Build(name string, vectors [][]float64, opts Options) (SecureIndex, error) {
	if err := Lookup(name); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if name == "ivf" {
		return buildIVF(vectors, opts)
	}
	return buildHNSW(vectors, opts)
}

// Load reads a section written by the named backend's Save ("" = Default)
// for a database of len(live) records of dimension dim, live[id] false at
// every dead slot. The section's bytes are untrusted; the dimension and
// the liveness come from the database file that carries it, which states
// them once for every section.
func Load(name string, d *frame.Decoder, dim int, live []bool) (SecureIndex, error) {
	if err := Lookup(name); err != nil {
		return nil, err
	}
	if name == "ivf" {
		return loadIVF(d, dim, live)
	}
	return loadHNSW(d, dim, live)
}
