// Package pir implements two-server information-theoretic XOR private
// information retrieval over fixed-size blocks, the substrate of the
// PACM-ANN and PRI-ANN baselines.
//
// The client splits the index of the desired block into two random
// selection vectors (r and r⊕e_i), one per non-colluding server; each
// server XOR-folds the blocks its vector selects, and the client XORs the
// two answers to recover block i. Each retrieval therefore costs every
// server a full linear scan of the database — the cost that dominates the
// PIR-based baselines in the paper's Figure 7/9 comparisons.
//
// Cost accounting (bytes scanned, bytes shipped, queries served) is built
// in because the experiments report exactly those quantities. The
// communication recorded for uploads is the n/8-byte selection vector; the
// DPF-based schemes the baselines cite would compress this to O(λ·log n)
// keys, so Stats also reports that equivalent for fair accounting.
package pir

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ppanns/internal/rng"
)

// Stats accumulates server-side and transfer costs across queries.
type Stats struct {
	// Queries is the number of Answer calls served.
	Queries int64
	// BytesScanned counts database bytes XOR-folded by the server.
	BytesScanned int64
	// UploadBytes counts selection-vector bytes received.
	UploadBytes int64
	// DownloadBytes counts answer bytes returned.
	DownloadBytes int64
}

// Server is one of the two non-colluding PIR servers, holding the full
// block database.
type Server struct {
	blocks    [][]byte
	blockSize int

	queries   atomic.Int64
	scanned   atomic.Int64
	uploads   atomic.Int64
	downloads atomic.Int64
}

// NewServer builds a PIR server over n equal-size blocks. Short blocks are
// zero-padded copies, padded to the longest block's size; a block of that
// size is kept as given, so servers over one database share its memory,
// and the caller must not change the blocks afterwards.
func NewServer(blocks [][]byte) (*Server, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("pir: empty database")
	}
	size := 0
	for _, b := range blocks {
		if len(b) > size {
			size = len(b)
		}
	}
	if size == 0 {
		return nil, fmt.Errorf("pir: all blocks empty")
	}
	padded := make([][]byte, len(blocks))
	for i, b := range blocks {
		if len(b) == size {
			padded[i] = b
			continue
		}
		p := make([]byte, size)
		copy(p, b)
		padded[i] = p
	}
	return &Server{blocks: padded, blockSize: size}, nil
}

// BlockSize returns the padded block size in bytes.
func (s *Server) BlockSize() int { return s.blockSize }

// Answer XOR-folds the blocks whose bit is set in the selection vector
// (bit i of sel[i/8]). The scan over all selected blocks is the server-side
// cost the experiments account.
func (s *Server) Answer(sel []byte) ([]byte, error) {
	if len(sel) != (len(s.blocks)+7)/8 {
		return nil, fmt.Errorf("pir: selection vector of %d bytes, want %d", len(sel), (len(s.blocks)+7)/8)
	}
	out := make([]byte, s.blockSize)
	var scanned int64
	for i, b := range s.blocks {
		if sel[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		for j, v := range b {
			out[j] ^= v
		}
		scanned += int64(len(b))
	}
	s.queries.Add(1)
	s.scanned.Add(scanned)
	s.uploads.Add(int64(len(sel)))
	s.downloads.Add(int64(len(out)))
	return out, nil
}

// Stats snapshots the server's accumulated costs.
func (s *Server) Stats() Stats {
	return Stats{
		Queries:       s.queries.Load(),
		BytesScanned:  s.scanned.Load(),
		UploadBytes:   s.uploads.Load(),
		DownloadBytes: s.downloads.Load(),
	}
}

// ResetStats zeroes the counters (between experiment phases).
func (s *Server) ResetStats() {
	s.queries.Store(0)
	s.scanned.Store(0)
	s.uploads.Store(0)
	s.downloads.Store(0)
}

// Client generates PIR queries for a database of n blocks.
type Client struct {
	n   int
	mu  sync.Mutex
	rnd *rng.Rand
}

// NewClient creates a client for an n-block database, drawing masks from r.
func NewClient(r *rng.Rand, n int) (*Client, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pir: non-positive database size %d", n)
	}
	return &Client{n: n, rnd: rng.Derive(r, 0x419)}, nil
}

// Query splits the request for block index into the two servers' selection
// vectors: a uniformly random vector and the same vector with bit `index`
// flipped. Neither server learns anything about index.
func (c *Client) Query(index int) (selA, selB []byte, err error) {
	if index < 0 || index >= c.n {
		return nil, nil, fmt.Errorf("pir: block index %d out of range [0,%d)", index, c.n)
	}
	bytes := (c.n + 7) / 8
	selA = make([]byte, bytes)
	c.mu.Lock()
	for i := range selA {
		selA[i] = byte(c.rnd.Uint64())
	}
	c.mu.Unlock()
	// Mask tail bits beyond n so both vectors stay valid selections.
	if c.n%8 != 0 {
		selA[bytes-1] &= byte(1<<(c.n%8)) - 1
	}
	selB = make([]byte, bytes)
	copy(selB, selA)
	selB[index/8] ^= 1 << (index % 8)
	return selA, selB, nil
}

// Combine XORs the two servers' answers into the requested block.
func Combine(ansA, ansB []byte) ([]byte, error) {
	if len(ansA) != len(ansB) {
		return nil, fmt.Errorf("pir: answer length mismatch %d vs %d", len(ansA), len(ansB))
	}
	out := make([]byte, len(ansA))
	for i := range out {
		out[i] = ansA[i] ^ ansB[i]
	}
	return out, nil
}

// Retrieve runs the whole two-server protocol against a pair of servers —
// the convenience path the baselines use.
func Retrieve(c *Client, a, b *Server, index int) ([]byte, error) {
	selA, selB, err := c.Query(index)
	if err != nil {
		return nil, err
	}
	ansA, err := a.Answer(selA)
	if err != nil {
		return nil, err
	}
	ansB, err := b.Answer(selB)
	if err != nil {
		return nil, err
	}
	return Combine(ansA, ansB)
}

// DPFKeyBytes returns the upload size a distributed-point-function PIR
// (as used by the PRI-ANN paper) would need for an n-block database with a
// 128-bit security parameter: ~λ·(log₂ n + 2) bits per server. Experiments
// report it alongside the XOR-PIR upload for fair communication accounting.
func DPFKeyBytes(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return 16 * (bits + 2)
}
