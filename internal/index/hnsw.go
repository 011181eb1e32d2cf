package index

import (
	"ppanns/internal/frame"
	"ppanns/internal/hnsw"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// hnswIndex adapts hnsw.Graph to SecureIndex. The bulk build gives row i
// graph id i, so row positions — the slots that index the ciphertext
// arrays — are graph ids.
type hnswIndex struct {
	g *hnsw.Graph
}

func buildHNSW(rows *vec.Dataset, ids []int32, opts Options) (SecureIndex, error) {
	g, err := hnsw.Build(rows, ids, hnsw.Config{
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
	if pos < 0 || pos >= ix.g.Len() {
		return nil, false
	}
	return ix.g.Vector(pos), true
}

// Rebuild reconstructs a fresh graph over rows with the receiver's build
// parameters, through the same bulk build as BuildOver.
func (ix *hnswIndex) Rebuild(rows *vec.Dataset, ids []int32) (SecureIndex, error) {
	cfg := ix.g.Config()
	return buildHNSW(rows, ids, Options{
		Seed:           cfg.Seed,
		M:              cfg.M,
		EfConstruction: cfg.EfConstruction,
	})
}

func (ix *hnswIndex) Save(e *frame.Encoder) { ix.g.Save(e) }

func loadHNSW(d *frame.Decoder, rows *vec.Dataset) (SecureIndex, error) {
	g, err := hnsw.Load(d, rows)
	if err != nil {
		return nil, err
	}
	return &hnswIndex{g: g}, nil
}
