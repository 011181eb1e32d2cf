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

// Save writes the graph in the binary index format. It takes the write lock
// so the snapshot is consistent.
func (g *Graph) Save(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()

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

// Load reads a graph previously written by Save. dist supplies the metric
// (nil for squared Euclidean).
func Load(r io.Reader, dist DistanceFunc) (*Graph, error) {
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
	n, entry, maxLevel, size := int(head[6]), int(head[7]), int(head[8]), int(head[9])
	if n < 0 || entry < -1 || entry >= n || maxLevel < 0 || size < 0 || size > n {
		return nil, fmt.Errorf("hnsw: implausible header n=%d entry=%d maxLevel=%d size=%d", n, entry, maxLevel, size)
	}
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	g.entry, g.maxLevel, g.size = entry, maxLevel, size

	raw := make([]float64, n*cfg.Dim)
	if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
		return nil, fmt.Errorf("hnsw: reading vectors: %w", err)
	}
	ds, err := vec.DatasetFromRaw(cfg.Dim, raw)
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
		if level < 0 || int(level) > maxLevel {
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
	return g, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
