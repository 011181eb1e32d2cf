package ivf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"ppanns/internal/vec"
)

// Binary index format: magic, dim/nlist/n/live header, centroid matrix,
// flat vector store, tombstone bytes, then one length-prefixed member list
// per inverted list. All integers are little-endian.

const persistMagic = "IVFGO001"

// Save writes the index in the binary format.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("ivf: writing magic: %w", err)
	}
	n := len(ix.deleted)
	head := []int64{int64(ix.dim), int64(len(ix.centroids)), int64(n), int64(ix.live)}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("ivf: writing header: %w", err)
		}
	}
	for _, c := range ix.centroids {
		if err := binary.Write(bw, binary.LittleEndian, c); err != nil {
			return fmt.Errorf("ivf: writing centroids: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.data.Raw()); err != nil {
		return fmt.Errorf("ivf: writing vectors: %w", err)
	}
	for _, d := range ix.deleted {
		b := byte(0)
		if d {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	for c := range ix.centroids {
		lst := ix.list(c)
		if err := binary.Write(bw, binary.LittleEndian, int32(len(lst))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, lst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads an index of n vectors of dimension dim previously written by
// Save. The bytes are untrusted: a header that disagrees with dim and n is
// refused before it sizes anything, the centroids (whose count n does not
// bound) are allocated as their bytes arrive, and the lists must hold every
// live id exactly once. A listed tombstone — files written before dead
// slots left the lists carry them — is dropped from its list.
func Load(r io.Reader, dim, n int) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ivf: reading magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("ivf: bad magic %q", magic)
	}
	head := make([]int64, 4)
	if err := binary.Read(br, binary.LittleEndian, head); err != nil {
		return nil, fmt.Errorf("ivf: reading header: %w", err)
	}
	if head[0] != int64(dim) || head[2] != int64(n) {
		return nil, fmt.Errorf("ivf: index of %d vectors of dimension %d, want %d of %d", head[2], head[0], n, dim)
	}
	nlist, live := head[1], head[3]
	if nlist < 0 || nlist > math.MaxInt32 || live < 0 || live > int64(n) || nlist == 0 && live != 0 {
		return nil, fmt.Errorf("ivf: implausible header nlist=%d n=%d live=%d", nlist, n, live)
	}
	ix := &Index{dim: dim, deleted: make([]bool, n), live: int(live)}
	for len(ix.centroids) < int(nlist) {
		c := make([]float64, dim)
		if err := binary.Read(br, binary.LittleEndian, c); err != nil {
			return nil, fmt.Errorf("ivf: reading centroids: %w", err)
		}
		ix.centroids = append(ix.centroids, c)
	}
	raw := make([]float64, n*dim)
	if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
		return nil, fmt.Errorf("ivf: reading vectors: %w", err)
	}
	ds, err := vec.DatasetFromRaw(dim, raw)
	if err != nil {
		return nil, err
	}
	ix.data = ds
	tombs := make([]byte, n)
	if _, err := io.ReadFull(br, tombs); err != nil {
		return nil, fmt.Errorf("ivf: reading tombstones: %w", err)
	}
	dead := 0
	for i, b := range tombs {
		ix.deleted[i] = b != 0
		if ix.deleted[i] {
			dead++
		}
	}
	if dead != n-int(live) {
		return nil, fmt.Errorf("ivf: header counts %d live vectors, tombstones leave %d", live, n-dead)
	}
	ix.offs = make([]int32, nlist+1)
	ix.ids = make([]int32, 0, live)
	listed := make([]bool, n)
	lst := make([]int32, 0, min(n, 1<<12))
	for c := range ix.centroids {
		var cnt int32
		if err := binary.Read(br, binary.LittleEndian, &cnt); err != nil {
			return nil, fmt.Errorf("ivf: reading list %d: %w", c, err)
		}
		if cnt < 0 || int(cnt) > n {
			return nil, fmt.Errorf("ivf: list %d has %d members", c, cnt)
		}
		lst = slices.Grow(lst[:0], int(cnt))[:cnt]
		if err := binary.Read(br, binary.LittleEndian, lst); err != nil {
			return nil, err
		}
		for _, id := range lst {
			if id < 0 || int(id) >= n || listed[id] {
				return nil, fmt.Errorf("ivf: list %d holds id %d out of range or twice", c, id)
			}
			listed[id] = true
			if !ix.deleted[id] {
				ix.ids = append(ix.ids, id)
			}
		}
		ix.offs[c+1] = int32(len(ix.ids))
	}
	for id, ok := range listed {
		if !ok && !ix.deleted[id] {
			return nil, fmt.Errorf("ivf: live id %d is in no list", id)
		}
	}
	return ix, nil
}
