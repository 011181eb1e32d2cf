package index

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Default is the backend used when no name is given: HNSW, the paper's
// choice.
const Default = "hnsw"

// Backend bundles a named builder and loader. Build constructs the index
// over a vector set; Load reads a payload written by SecureIndex.Save for
// a database of n records of dimension dim. The payload's bytes are
// untrusted, and the dimension and record count come from the database
// that carries it: Load refuses a payload whose header disagrees with
// either before it sizes anything.
type Backend struct {
	Name  string
	Build func(vectors [][]float64, opts Options) (SecureIndex, error)
	Load  func(r io.Reader, dim, n int) (SecureIndex, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend under its name. Registering a duplicate or an
// incomplete backend panics: registration happens at init time and a bad
// table is a programming error.
func Register(b Backend) {
	if b.Name == "" || b.Build == nil || b.Load == nil {
		panic("index: incomplete backend registration")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("index: backend %q registered twice", b.Name))
	}
	registry[b.Name] = b
}

// Lookup resolves a backend name; the empty string selects Default.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = Default
	}
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Backend{}, fmt.Errorf("index: unknown backend %q (have %v)", name, Names())
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build constructs the named backend over the vectors ("" = Default); a
// nil row is a dead slot (see SecureIndex).
func Build(name string, vectors [][]float64, opts Options) (SecureIndex, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return b.Build(vectors, opts)
}

// Load reads a payload written by the named backend's Save ("" = Default)
// for a database of n records of dimension dim.
func Load(name string, r io.Reader, dim, n int) (SecureIndex, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return b.Load(r, dim, n)
}
