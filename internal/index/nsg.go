package index

import (
	"fmt"
	"io"

	"ppanns/internal/nsg"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

func init() {
	Register(Backend{Name: "nsg", Build: buildNSG, Load: loadNSG})
}

// nsgIndex adapts nsg.Graph to SecureIndex: ids equal build positions.
type nsgIndex struct {
	g *nsg.Graph
}

func buildNSG(vectors [][]float64, opts Options) (SecureIndex, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("index: nsg requires a non-empty initial vector set")
	}
	g, err := nsg.Build(vectors, nsg.Config{
		Dim:  opts.Dim,
		R:    opts.R,
		L:    opts.L,
		KNN:  opts.KNN,
		Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &nsgIndex{g: g}, nil
}

// beam caps the advisory ef budget at the live node count. The graph sizes
// a fresh search context by its beam, and ef can arrive from the wire; a
// beam as wide as the graph already holds every node the walk can reach,
// so a wider one returns the same results.
func (a *nsgIndex) beam(ef int) int { return min(ef, a.g.Len()) }

func (a *nsgIndex) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	return a.g.SearchInto(dst, q, k, a.beam(ef))
}

func (a *nsgIndex) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	return a.g.SearchIntoDist(dst, q, k, a.beam(ef), sc)
}

func (a *nsgIndex) Len() int { return a.g.Len() }
func (a *nsgIndex) Dim() int { return a.g.Dim() }

func (a *nsgIndex) Vector(id int) ([]float64, bool) {
	v := a.g.Vector(id)
	return v, v != nil
}

// Rebuild batch-builds a fresh NSG over vectors with the receiver's
// configuration.
func (a *nsgIndex) Rebuild(vectors [][]float64) (SecureIndex, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("index: nsg requires a non-empty vector set")
	}
	g, err := nsg.Build(vectors, a.g.Config())
	if err != nil {
		return nil, err
	}
	return &nsgIndex{g: g}, nil
}

const nsgPayloadMagic = "IDXNSG01"

func (a *nsgIndex) Save(w io.Writer) error {
	if _, err := io.WriteString(w, nsgPayloadMagic); err != nil {
		return err
	}
	return a.g.Save(w)
}

func loadNSG(r io.Reader, dim, n int) (SecureIndex, error) {
	magic := make([]byte, len(nsgPayloadMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("index: reading nsg payload magic: %w", err)
	}
	if string(magic) != nsgPayloadMagic {
		return nil, fmt.Errorf("index: bad nsg payload magic %q", magic)
	}
	g, err := nsg.Load(r, dim, n)
	if err != nil {
		return nil, err
	}
	return &nsgIndex{g: g}, nil
}
