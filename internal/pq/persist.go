package pq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary persistence of a Store: a fixed header, the flat centroid blocks,
// then the code arena, with one streaming CRC32 over centroids and codes so
// storage corruption surfaces at load time instead of as silently skewed
// filter distances. The section is self-framing (fixed magic, lengths
// derivable from the header), so container formats can embed it and keep
// reading their own payloads after it.

const storeMagic = "PQSTORE1"

// Save writes the store in the PQSTORE1 format.
func (s *Store) Save(w io.Writer) error {
	if s == nil || s.Book == nil || s.Codes == nil {
		return fmt.Errorf("pq: saving incomplete store")
	}
	if s.Codes.M() != s.Book.M() {
		return fmt.Errorf("pq: code width %d does not match codebook M %d", s.Codes.M(), s.Book.M())
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(storeMagic); err != nil {
		return err
	}
	head := []int64{
		int64(s.Book.Dim()), int64(s.Book.M()), int64(s.Book.K()),
		int64(s.Codes.Len()), int64(s.TrainedOn),
		int64(s.Cfg.M), int64(s.Cfg.K), int64(s.Cfg.MaxSample),
		int64(s.Cfg.Iters), int64(s.Cfg.Seed),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var crc uint32
	buf := make([]byte, 8)
	for _, block := range s.Book.Centroids() {
		for _, f := range block {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(f))
			crc = crc32.Update(crc, crc32.IEEETable, buf)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	codes := s.Codes.Raw()
	crc = crc32.Update(crc, crc32.IEEETable, codes)
	if _, err := bw.Write(codes); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a store written by Save for a database of n records of
// dimension dim. The bytes are untrusted, so the header must agree with
// both before it sizes anything: every allocation is then bounded by n and
// dim, which the caller has already paid for in bytes read. The reader is
// consumed exactly to the end of the PQ section.
func Load(r io.Reader, dim, n int) (*Store, error) {
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("pq: reading magic: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("pq: bad magic %q", magic)
	}
	head := make([]int64, 10)
	for i := range head {
		if err := binary.Read(r, binary.LittleEndian, &head[i]); err != nil {
			return nil, fmt.Errorf("pq: reading header: %w", err)
		}
	}
	if head[0] != int64(dim) {
		return nil, fmt.Errorf("pq: codebook dimension %d does not match database dimension %d", head[0], dim)
	}
	if head[3] != int64(n) {
		return nil, fmt.Errorf("pq: code arena holds %d rows, database %d", head[3], n)
	}
	m, k, trainedOn := head[1], head[2], head[4]
	if m <= 0 || m > int64(dim) || k <= 0 || k > LUTStride || trainedOn < 0 {
		return nil, fmt.Errorf("pq: implausible header dim=%d m=%d k=%d n=%d", dim, m, k, n)
	}
	cfg := TrainConfig{
		M: int(head[5]), K: int(head[6]), MaxSample: int(head[7]),
		Iters: int(head[8]), Seed: uint64(head[9]),
	}
	// Rebuild the subspace layout to know each centroid block's width: the
	// blocks hold k·dim floats in all.
	book := newCodebook(dim, int(m), int(k))
	var crc uint32
	buf := make([]byte, 8)
	for j := range book.cents {
		block := make([]float64, book.k*book.width[j])
		for i := range block {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, fmt.Errorf("pq: reading centroids: %w", err)
			}
			crc = crc32.Update(crc, crc32.IEEETable, buf)
			block[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		}
		book.cents[j] = block
	}
	codes := &CodeStore{m: book.m, codes: alloc(n * book.m)}
	if _, err := io.ReadFull(r, codes.codes); err != nil {
		return nil, fmt.Errorf("pq: reading codes: %w", err)
	}
	crc = crc32.Update(crc, crc32.IEEETable, codes.codes)
	var stored uint32
	if err := binary.Read(r, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("pq: reading checksum: %w", err)
	}
	if crc != stored {
		return nil, fmt.Errorf("pq: store corrupted (crc %08x, want %08x)", crc, stored)
	}
	return &Store{Book: book, Codes: codes, TrainedOn: int(trainedOn), Cfg: cfg}, nil
}
