package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ppanns/internal/hnsw"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

func init() {
	Register(Backend{Name: "hnsw", Build: buildHNSW, Load: loadHNSW})
}

// hnswIndex adapts hnsw.Graph to SecureIndex. A bulk build gives vector i
// graph id i, but database files written before the build was made
// deterministic carry graphs whose ids follow the arrival order of a
// parallel build, so the adapter keeps (and persists) the two-way mapping
// that makes external ids equal to positions (they index the ciphertext
// arrays and are what users see).
type hnswIndex struct {
	g *hnsw.Graph

	mu      sync.RWMutex
	pos2gid []int32
	gid2pos []int32

	scPool sync.Pool // *gidScanner
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
	ix := &hnswIndex{
		g:       g,
		pos2gid: make([]int32, len(vectors)),
		gid2pos: make([]int32, len(vectors)),
	}
	for i := range ix.pos2gid {
		ix.pos2gid[i], ix.gid2pos[i] = int32(i), int32(i)
	}
	return ix, nil
}

func (ix *hnswIndex) Add(v []float64) (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	gid := ix.g.Add(v)
	// Sequential adds receive dense graph ids, so gid matches the mapping
	// size; a mismatch means the graph was mutated behind the adapter.
	if gid != len(ix.gid2pos) {
		return 0, fmt.Errorf("index: hnsw id %d out of step with mapping size %d", gid, len(ix.gid2pos))
	}
	pos := len(ix.pos2gid)
	ix.pos2gid = append(ix.pos2gid, int32(gid))
	ix.gid2pos = append(ix.gid2pos, int32(pos))
	return pos, nil
}

func (ix *hnswIndex) Search(q []float64, k, ef int) []resultheap.Item {
	return ix.SearchInto(nil, q, k, ef)
}

func (ix *hnswIndex) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	dst = ix.g.SearchInto(dst, q, k, ef)
	ix.mu.RLock()
	for i := range dst {
		dst[i].ID = int(ix.gid2pos[dst[i].ID])
	}
	ix.mu.RUnlock()
	return dst
}

// gidScanner adapts a position-keyed scanner to the graph's internal id
// space: ids the graph asks about are translated gid→position before the
// wrapped scanner is consulted. Pooled per query; the translation buffer is
// retained so a warm search allocates nothing.
type gidScanner struct {
	sc      vec.BlockScanner
	gid2pos []int32
	buf     []int32
}

func (s *gidScanner) Dist(id int32) float64 { return s.sc.Dist(s.gid2pos[id]) }

func (s *gidScanner) DistBlock(dst []float64, ids []int32) {
	if cap(s.buf) < len(ids) {
		s.buf = make([]int32, len(ids))
	}
	buf := s.buf[:len(ids)]
	for j, id := range ids {
		buf[j] = s.gid2pos[id]
	}
	s.sc.DistBlock(dst, buf)
}

func (ix *hnswIndex) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	gs, _ := ix.scPool.Get().(*gidScanner)
	if gs == nil {
		gs = &gidScanner{}
	}
	ix.mu.RLock()
	gs.sc, gs.gid2pos = sc, ix.gid2pos
	ix.mu.RUnlock()
	dst = ix.g.SearchIntoDist(dst, q, k, ef, gs)
	gs.sc, gs.gid2pos = nil, nil // don't pin the arenas through the pool
	ix.scPool.Put(gs)
	ix.mu.RLock()
	for i := range dst {
		dst[i].ID = int(ix.gid2pos[dst[i].ID])
	}
	ix.mu.RUnlock()
	return dst
}

func (ix *hnswIndex) Delete(pos int) error {
	ix.mu.RLock()
	if pos < 0 || pos >= len(ix.pos2gid) {
		ix.mu.RUnlock()
		return fmt.Errorf("index: hnsw delete of unknown id %d", pos)
	}
	gid := int(ix.pos2gid[pos])
	ix.mu.RUnlock()
	return ix.g.Delete(gid)
}

func (ix *hnswIndex) Len() int { return ix.g.Len() }
func (ix *hnswIndex) Dim() int { return ix.g.Dim() }

func (ix *hnswIndex) Vector(pos int) ([]float64, bool) {
	ix.mu.RLock()
	if pos < 0 || pos >= len(ix.pos2gid) {
		ix.mu.RUnlock()
		return nil, false
	}
	gid := int(ix.pos2gid[pos])
	ix.mu.RUnlock()
	return ix.g.Vector(gid), true
}

func (ix *hnswIndex) Clone() SecureIndex {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return &hnswIndex{
		g:       ix.g.Clone(),
		pos2gid: append([]int32(nil), ix.pos2gid...),
		gid2pos: append([]int32(nil), ix.gid2pos...),
	}
}

// Rebuild reconstructs a fresh graph over vectors with the receiver's
// build parameters, through the same bulk build as the registry Build.
func (ix *hnswIndex) Rebuild(vectors [][]float64) (SecureIndex, error) {
	cfg := ix.g.Config()
	return buildHNSW(vectors, Options{
		Dim:            cfg.Dim,
		Seed:           cfg.Seed,
		M:              cfg.M,
		EfConstruction: cfg.EfConstruction,
	})
}

func (ix *hnswIndex) Caps() Caps {
	return Caps{Name: "hnsw", DynamicInsert: true, DynamicDelete: true}
}

const hnswPayloadMagic = "IDXHNSW1"

// Save writes the position→graph-id mapping followed by the graph itself.
// gid2pos is not persisted: it is the inverse permutation of pos2gid and
// deriving it at load time makes a mismatched pair unrepresentable.
func (ix *hnswIndex) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(hnswPayloadMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(ix.pos2gid))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.pos2gid); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return ix.g.Save(w)
}

func loadHNSW(r io.Reader) (SecureIndex, error) {
	magic := make([]byte, len(hnswPayloadMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("index: reading hnsw payload magic: %w", err)
	}
	if string(magic) != hnswPayloadMagic {
		return nil, fmt.Errorf("index: bad hnsw payload magic %q", magic)
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("index: implausible hnsw mapping size %d", n)
	}
	ix := &hnswIndex{pos2gid: make([]int32, n)}
	if err := binary.Read(r, binary.LittleEndian, ix.pos2gid); err != nil {
		return nil, err
	}
	g, err := hnsw.Load(r, nil)
	if err != nil {
		return nil, err
	}
	// Rebuild the inverse mapping, rejecting out-of-range and duplicate
	// graph ids so a corrupted mapping fails here instead of silently
	// returning wrong external ids from Search.
	ix.gid2pos = make([]int32, n)
	for i := range ix.gid2pos {
		ix.gid2pos[i] = -1
	}
	for pos, gid := range ix.pos2gid {
		if gid < 0 || int64(gid) >= n {
			return nil, fmt.Errorf("index: hnsw mapping references out-of-range graph id %d", gid)
		}
		if ix.gid2pos[gid] != -1 {
			return nil, fmt.Errorf("index: hnsw mapping assigns graph id %d twice", gid)
		}
		ix.gid2pos[gid] = int32(pos)
	}
	st := g.Stats()
	if st.Nodes+st.Deleted != int(n) {
		return nil, fmt.Errorf("index: hnsw graph has %d nodes, mapping %d", st.Nodes+st.Deleted, n)
	}
	ix.g = g
	return ix, nil
}
