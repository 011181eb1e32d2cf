package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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

func (ix *hnswIndex) Len() int { return ix.g.Len() }
func (ix *hnswIndex) Dim() int { return ix.g.Dim() }

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

const hnswPayloadMagic = "IDXHNSW1"

// Save writes the IDXHNSW1 payload: a position→graph-id map, then the graph.
// The map is the identity — positions are graph ids — and is written only
// because the payload's bytes are a contract (a seed fixes every byte of a
// database file); loadHNSW checks it and keeps nothing of it.
func (ix *hnswIndex) Save(w io.Writer) error {
	n := ix.g.IDs()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(hnswPayloadMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(n)); err != nil {
		return err
	}
	var b [4]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[:], uint32(i))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return ix.g.Save(w)
}

func loadHNSW(r io.Reader, dim, n int) (SecureIndex, error) {
	// Sized like hnsw.Load's own reader, which therefore adopts this one
	// instead of stacking a second buffer over bytes already consumed.
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(hnswPayloadMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("index: reading hnsw payload magic: %w", err)
	}
	if string(magic) != hnswPayloadMagic {
		return nil, fmt.Errorf("index: bad hnsw payload magic %q", magic)
	}
	var size int64
	if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
		return nil, fmt.Errorf("index: reading hnsw mapping size: %w", err)
	}
	if size != int64(n) {
		return nil, fmt.Errorf("index: hnsw mapping of %d positions, want %d", size, n)
	}
	var b [4]byte
	for pos := 0; pos < n; pos++ {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return nil, fmt.Errorf("index: reading hnsw mapping: %w", err)
		}
		if gid := int32(binary.LittleEndian.Uint32(b[:])); int(gid) != pos {
			return nil, fmt.Errorf("index: hnsw payload maps position %d to graph id %d: %w", pos, gid, ErrOldFormat)
		}
	}
	g, err := hnsw.Load(br, dim, n)
	if err != nil {
		return nil, err
	}
	return &hnswIndex{g: g}, nil
}
