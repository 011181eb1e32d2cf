package hnsw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ppanns/internal/vec"
)

// Binary graph format: a fixed magic/version header, build parameters, the
// flat vector store, then per-node levels, tombstones and adjacency lists.
// All integers are little-endian. The distance function is not part of the
// file — the loader supplies it (metrics are code, not data).

const persistMagic = "HNSWGO01"

// Save writes the graph in the binary index format. It takes the read lock:
// the snapshot is consistent against Delete, and searches run on beside it.
func (g *Graph) Save(w io.Writer) error {
	g.mu.RLock()
	defer g.mu.RUnlock()

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("hnsw: writing magic: %w", err)
	}
	head := []int64{
		int64(g.cfg.Dim), int64(g.cfg.M), int64(g.cfg.MMax0),
		int64(g.cfg.EfConstruction), int64(g.cfg.Seed),
		int64(boolByte(g.cfg.SkipKeepPruned)),
		int64(len(g.nodes)), int64(g.entry), int64(g.maxLevel), int64(g.size),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("hnsw: writing header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.data.Raw()); err != nil {
		return fmt.Errorf("hnsw: writing vectors: %w", err)
	}
	for _, nd := range g.nodes {
		if err := binary.Write(bw, binary.LittleEndian, int32(nd.level)); err != nil {
			return err
		}
		if err := bw.WriteByte(boolByte(nd.deleted)); err != nil {
			return err
		}
		for l := 0; l <= nd.level; l++ {
			lst := nd.neighbors[l]
			if err := binary.Write(bw, binary.LittleEndian, int32(len(lst))); err != nil {
				return err
			}
			for _, nb := range lst {
				if err := binary.Write(bw, binary.LittleEndian, nb); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Load reads a graph of n nodes of dimension dim previously written by
// Save; dist supplies the metric (nil for squared Euclidean). The bytes are
// untrusted: a header that disagrees with dim and n is refused before it
// sizes anything.
func Load(r io.Reader, dim, n int, dist DistanceFunc) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hnsw: reading magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("hnsw: bad magic %q", magic)
	}
	head := make([]int64, 10)
	for i := range head {
		if err := binary.Read(br, binary.LittleEndian, &head[i]); err != nil {
			return nil, fmt.Errorf("hnsw: reading header: %w", err)
		}
	}
	cfg := Config{
		Dim:            int(head[0]),
		M:              int(head[1]),
		MMax0:          int(head[2]),
		EfConstruction: int(head[3]),
		Seed:           uint64(head[4]),
		SkipKeepPruned: head[5] != 0,
		Distance:       dist,
	}
	if head[0] != int64(dim) || head[6] != int64(n) {
		return nil, fmt.Errorf("hnsw: graph of %d nodes of dimension %d, want %d of %d", head[6], head[0], n, dim)
	}
	// Build draws no level above 53 (U ≥ 2⁻⁵³, M ≥ 2), so a deeper header
	// is a lie.
	entry, maxLevel, size := head[7], head[8], head[9]
	if entry < -1 || entry >= int64(n) || maxLevel < 0 || maxLevel > 64 || size < 0 || size > int64(n) || (entry < 0) != (size == 0) {
		return nil, fmt.Errorf("hnsw: implausible header n=%d entry=%d maxLevel=%d size=%d", n, entry, maxLevel, size)
	}
	g, err := newGraph(cfg, 0)
	if err != nil {
		return nil, err
	}
	g.entry, g.maxLevel, g.size = int(entry), int(maxLevel), int(size)

	raw := make([]float64, n*dim)
	if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
		return nil, fmt.Errorf("hnsw: reading vectors: %w", err)
	}
	ds, err := vec.DatasetFromRaw(dim, raw)
	if err != nil {
		return nil, err
	}
	g.data = ds

	g.nodes = make([]node, n)
	for i := 0; i < n; i++ {
		var level int32
		if err := binary.Read(br, binary.LittleEndian, &level); err != nil {
			return nil, fmt.Errorf("hnsw: reading node %d: %w", i, err)
		}
		delByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("hnsw: reading node %d tombstone: %w", i, err)
		}
		if level < 0 || int64(level) > maxLevel {
			return nil, fmt.Errorf("hnsw: node %d has level %d beyond max %d", i, level, maxLevel)
		}
		nd := node{level: int(level), deleted: delByte != 0, neighbors: make([][]int32, level+1)}
		for l := 0; l <= int(level); l++ {
			var cnt int32
			if err := binary.Read(br, binary.LittleEndian, &cnt); err != nil {
				return nil, fmt.Errorf("hnsw: reading adjacency of node %d: %w", i, err)
			}
			if cnt < 0 || int(cnt) > n {
				return nil, fmt.Errorf("hnsw: node %d layer %d has %d neighbors", i, l, cnt)
			}
			lst := make([]int32, cnt)
			for j := range lst {
				if err := binary.Read(br, binary.LittleEndian, &lst[j]); err != nil {
					return nil, err
				}
				if lst[j] < 0 || int(lst[j]) >= n {
					return nil, fmt.Errorf("hnsw: node %d references out-of-range id %d", i, lst[j])
				}
			}
			nd.neighbors[l] = lst
		}
		g.nodes[i] = nd
	}
	// The entry point is a node of the top level.
	if entry >= 0 && g.nodes[entry].level != g.maxLevel || entry < 0 && maxLevel != 0 {
		return nil, fmt.Errorf("hnsw: max level %d is not the entry point's", maxLevel)
	}
	return g, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
