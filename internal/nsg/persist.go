package nsg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ppanns/internal/vec"
)

// Binary graph format: magic, build parameters, dim/n/nav/live header, the
// flat vector store, tombstone bytes, then one length-prefixed adjacency
// list per vertex. All integers are little-endian.

const persistMagic = "NSGGO001"

// Save writes the graph in the binary format.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("nsg: writing magic: %w", err)
	}
	n := len(g.deleted)
	head := []int64{
		int64(g.cfg.R), int64(g.cfg.L), int64(g.cfg.KNN), int64(g.cfg.Seed),
		int64(g.dim), int64(n), int64(g.nav), int64(g.live),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("nsg: writing header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.data.Raw()); err != nil {
		return fmt.Errorf("nsg: writing vectors: %w", err)
	}
	for _, d := range g.deleted {
		b := byte(0)
		if d {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	for i := range g.deleted {
		lst := g.neighbors(i)
		if err := binary.Write(bw, binary.LittleEndian, int32(len(lst))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, lst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a graph of n vertices of dimension dim previously written by
// Save. The bytes are untrusted: a header that disagrees with dim and n is
// refused before it sizes anything, and adjacency is allocated as its
// bytes arrive.
func Load(r io.Reader, dim, n int) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nsg: reading magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("nsg: bad magic %q", magic)
	}
	head := make([]int64, 8)
	for i := range head {
		if err := binary.Read(br, binary.LittleEndian, &head[i]); err != nil {
			return nil, fmt.Errorf("nsg: reading header: %w", err)
		}
	}
	if head[4] != int64(dim) || head[5] != int64(n) {
		return nil, fmt.Errorf("nsg: graph of %d vertices of dimension %d, want %d of %d", head[5], head[4], n, dim)
	}
	cfg := Config{Dim: dim, R: int(head[0]), L: int(head[1]), KNN: int(head[2]), Seed: uint64(head[3])}
	nav, live := head[6], head[7]
	if n <= 0 || nav < 0 || nav >= int64(n) || live < 0 || live > int64(n) {
		return nil, fmt.Errorf("nsg: implausible header dim=%d n=%d nav=%d live=%d", dim, n, nav, live)
	}
	g := &Graph{
		cfg:     cfg,
		dim:     dim,
		nav:     int(nav),
		offs:    make([]int32, n+1),
		deleted: make([]bool, n),
		live:    int(live),
	}
	raw := make([]float64, n*dim)
	if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
		return nil, fmt.Errorf("nsg: reading vectors: %w", err)
	}
	ds, err := vec.DatasetFromRaw(dim, raw)
	if err != nil {
		return nil, err
	}
	g.data = ds
	for i := range g.deleted {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("nsg: reading tombstones: %w", err)
		}
		g.deleted[i] = b != 0
	}
	for i := 0; i < n; i++ {
		var cnt int32
		if err := binary.Read(br, binary.LittleEndian, &cnt); err != nil {
			return nil, fmt.Errorf("nsg: reading adjacency of %d: %w", i, err)
		}
		if cnt < 0 || int(cnt) > n {
			return nil, fmt.Errorf("nsg: vertex %d has %d neighbors", i, cnt)
		}
		lst := make([]int32, cnt)
		if err := binary.Read(br, binary.LittleEndian, lst); err != nil {
			return nil, err
		}
		for _, nb := range lst {
			if nb < 0 || int(nb) >= n {
				return nil, fmt.Errorf("nsg: vertex %d references out-of-range id %d", i, nb)
			}
		}
		g.nbrs = append(g.nbrs, lst...)
		g.offs[i+1] = int32(len(g.nbrs))
	}
	return g, nil
}
