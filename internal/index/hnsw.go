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

func buildHNSW(rows *vec.Dataset, live []bool, opts Options) (SecureIndex, error) {
	g, err := hnsw.Build(rows, live, hnsw.Config{
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

func (ix *hnswIndex) Len() int { return ix.g.Len() }

func (ix *hnswIndex) Vector(pos int) ([]float64, bool) {
	if ix.g.Deleted(pos) {
		return nil, false
	}
	return ix.g.Vector(pos), true
}

// Rebuild reconstructs a fresh graph over rows with the receiver's build
// parameters, through the same bulk build as BuildOver.
func (ix *hnswIndex) Rebuild(rows *vec.Dataset, live []bool) (SecureIndex, error) {
	cfg := ix.g.Config()
	return buildHNSW(rows, live, Options{
		Seed:           cfg.Seed,
		M:              cfg.M,
		EfConstruction: cfg.EfConstruction,
	})
}

func (ix *hnswIndex) Save(e *frame.Encoder) { ix.g.Save(e) }

func loadHNSW(d *frame.Decoder, rows *vec.Dataset, live []bool) (SecureIndex, error) {
	g, err := hnsw.Load(d, rows, live)
	if err != nil {
		return nil, err
	}
	return &hnswIndex{g: g}, nil
}
