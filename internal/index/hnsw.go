package index

import (
	"ppanns/internal/frame"
	"ppanns/internal/hnsw"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// hnswIndex adapts hnsw.Graph to SecureIndex. The bulk build gives vector i
// graph id i, so positions — the external ids that index the ciphertext
// arrays — are graph ids.
type hnswIndex struct {
	g *hnsw.Graph
}

func buildHNSW(vectors [][]float64, opts Options) (SecureIndex, error) {
	g, err := hnsw.Build(vectors, hnsw.Config{
		Dim:            opts.Dim,
		M:              opts.M,
		EfConstruction: opts.EfConstruction,
		Seed:           opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &hnswIndex{g: g}, nil
}

func (ix *hnswIndex) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	return ix.g.SearchInto(dst, q, k, ef)
}

func (ix *hnswIndex) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	return ix.g.SearchIntoDist(dst, q, k, ef, sc)
}

func (ix *hnswIndex) Rows() *vec.Dataset { return ix.g.Rows() }

func (ix *hnswIndex) Len() int { return ix.g.Len() }

func (ix *hnswIndex) Vector(pos int) ([]float64, bool) {
	if ix.g.Deleted(pos) {
		return nil, false
	}
	return ix.g.Vector(pos), true
}

// Rebuild reconstructs a fresh graph over vectors with the receiver's
// build parameters, through the same bulk build as Build.
func (ix *hnswIndex) Rebuild(vectors [][]float64) (SecureIndex, error) {
	cfg := ix.g.Config()
	return buildHNSW(vectors, Options{
		Dim:            cfg.Dim,
		Seed:           cfg.Seed,
		M:              cfg.M,
		EfConstruction: cfg.EfConstruction,
	})
}

func (ix *hnswIndex) Save(e *frame.Encoder) { ix.g.Save(e) }

func loadHNSW(d *frame.Decoder, dim int, live []bool) (SecureIndex, error) {
	g, err := hnsw.Load(d, dim, live)
	if err != nil {
		return nil, err
	}
	return &hnswIndex{g: g}, nil
}
