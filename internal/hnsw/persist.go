package hnsw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"ppanns/internal/vec"
)

// Binary graph format: a fixed magic/version header, build parameters, the
// flat vector store, then per-node levels, tombstones and adjacency lists.
// All integers are little-endian. Two header slots are fixed: the layer-0
// link cap, always 2·M, and a retired option flag, always 0.

const persistMagic = "HNSWGO01"

// Save writes the graph in the binary index format.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("hnsw: writing magic: %w", err)
	}
	head := []int64{
		int64(g.cfg.Dim), int64(g.cfg.M), int64(2 * g.cfg.M),
		int64(g.cfg.EfConstruction), int64(g.cfg.Seed), 0,
		int64(len(g.levels)), int64(g.entry), int64(g.maxLevel), int64(g.size),
	}
	if err := binary.Write(bw, binary.LittleEndian, head); err != nil {
		return fmt.Errorf("hnsw: writing header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, g.data.Raw()); err != nil {
		return fmt.Errorf("hnsw: writing vectors: %w", err)
	}
	for id, level := range g.levels {
		if err := binary.Write(bw, binary.LittleEndian, level); err != nil {
			return err
		}
		if err := bw.WriteByte(boolByte(g.dead[id])); err != nil {
			return err
		}
		for l := 0; l <= int(level); l++ {
			lst := g.layers[l].neighbors(id)
			if err := binary.Write(bw, binary.LittleEndian, int32(len(lst))); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, lst); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a graph of n nodes of dimension dim previously written by
// Save. The bytes are untrusted: a header that disagrees with dim and n,
// or with Save's fixed slots, is refused before it sizes anything, and the
// adjacency is packed into the CSR layers as its bytes arrive.
func Load(r io.Reader, dim, n int) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hnsw: reading magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("hnsw: bad magic %q", magic)
	}
	head := make([]int64, 10)
	if err := binary.Read(br, binary.LittleEndian, head); err != nil {
		return nil, fmt.Errorf("hnsw: reading header: %w", err)
	}
	cfg := Config{
		Dim:            int(head[0]),
		M:              int(head[1]),
		EfConstruction: int(head[3]),
		Seed:           uint64(head[4]),
	}
	if head[0] != int64(dim) || head[6] != int64(n) {
		return nil, fmt.Errorf("hnsw: graph of %d nodes of dimension %d, want %d of %d", head[6], head[0], n, dim)
	}
	if head[2] != 2*head[1] || head[5] != 0 {
		return nil, fmt.Errorf("hnsw: header slots %d and %d, want 2·M = %d and 0", head[2], head[5], 2*head[1])
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
	if g.data, err = vec.DatasetFromRaw(dim, raw); err != nil {
		return nil, err
	}

	g.levels = make([]int32, n)
	g.dead = make([]bool, n)
	g.layers = make([]csrLayer, maxLevel+1)
	for l := range g.layers {
		g.layers[l] = packed(make([]int32, n+1), nil)
	}
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
		g.levels[i], g.dead[i] = level, delByte != 0
		for l := range g.layers {
			lay := &g.layers[l]
			if l <= int(level) {
				var cnt int32
				if err := binary.Read(br, binary.LittleEndian, &cnt); err != nil {
					return nil, fmt.Errorf("hnsw: reading adjacency of node %d: %w", i, err)
				}
				if cnt < 0 || int(cnt) > n {
					return nil, fmt.Errorf("hnsw: node %d layer %d has %d neighbors", i, l, cnt)
				}
				at := len(lay.nbrs)
				lay.nbrs = slices.Grow(lay.nbrs, int(cnt))[:at+int(cnt)]
				lst := lay.nbrs[at:]
				if err := binary.Read(br, binary.LittleEndian, lst); err != nil {
					return nil, fmt.Errorf("hnsw: reading adjacency of node %d: %w", i, err)
				}
				for _, nb := range lst {
					if nb < 0 || int(nb) >= n {
						return nil, fmt.Errorf("hnsw: node %d references out-of-range id %d", i, nb)
					}
				}
			}
			lay.offs[i+1] = int32(len(lay.nbrs))
		}
	}
	// The entry point is a live node of the top level.
	if entry >= 0 && (g.levels[entry] != int32(maxLevel) || g.dead[entry]) || entry < 0 && maxLevel != 0 {
		return nil, fmt.Errorf("hnsw: entry point %d is not a live node of the max level %d", entry, maxLevel)
	}
	return g, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
