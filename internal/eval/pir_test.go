package eval

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ppanns/internal/rng"
)

// Two-server information-theoretic XOR private information retrieval over
// fixed-size blocks, the substrate of the PACM-ANN and PRI-ANN baselines.
//
// The client splits the index of the desired block into two random
// selection vectors (r and r⊕e_i), one per non-colluding server; each
// server XOR-folds the blocks its vector selects, and the client XORs the
// two answers to recover block i. Each retrieval therefore costs every
// server a full linear scan of the database — the cost that dominates the
// PIR-based baselines in the paper's Figure 7/9 comparisons.
//
// The server counts what it scans and ships (pirStats). The upload is the
// n/8-byte selection vector; the DPF-based schemes the baselines cite
// would compress it to O(λ·log n) keys.

// pirStats accumulates server-side and transfer costs across queries.
type pirStats struct {
	// Queries is the number of answer calls served.
	Queries int64
	// BytesScanned counts database bytes XOR-folded by the server.
	BytesScanned int64
	// UploadBytes counts selection-vector bytes received.
	UploadBytes int64
	// DownloadBytes counts answer bytes returned.
	DownloadBytes int64
}

// pirServer is one of the two non-colluding PIR servers, holding the full
// block database.
type pirServer struct {
	blocks    [][]byte
	blockSize int

	queries   atomic.Int64
	scanned   atomic.Int64
	uploads   atomic.Int64
	downloads atomic.Int64
}

// newPIRServer builds a PIR server over n equal-size blocks. Short blocks are
// zero-padded copies, padded to the longest block's size; a block of that
// size is kept as given, so servers over one database share its memory,
// and the caller must not change the blocks afterwards.
func newPIRServer(blocks [][]byte) (*pirServer, error) {
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
	return &pirServer{blocks: padded, blockSize: size}, nil
}

// answer XOR-folds the blocks whose bit is set in the selection vector
// (bit i of sel[i/8]). The scan over all selected blocks is the server-side
// cost the experiments account.
func (s *pirServer) answer(sel []byte) ([]byte, error) {
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

// stats snapshots the server's accumulated costs.
func (s *pirServer) stats() pirStats {
	return pirStats{
		Queries:       s.queries.Load(),
		BytesScanned:  s.scanned.Load(),
		UploadBytes:   s.uploads.Load(),
		DownloadBytes: s.downloads.Load(),
	}
}

// pirClient generates PIR queries for a database of n blocks.
type pirClient struct {
	n   int
	mu  sync.Mutex
	rnd *rng.Rand
}

// newPIRClient creates a client for an n-block database, drawing masks from r.
func newPIRClient(r *rng.Rand, n int) (*pirClient, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pir: non-positive database size %d", n)
	}
	return &pirClient{n: n, rnd: rng.Derive(r, 0x419)}, nil
}

// query splits the request for block index into the two servers' selection
// vectors: a uniformly random vector and the same vector with bit `index`
// flipped. Neither server learns anything about index.
func (c *pirClient) query(index int) (selA, selB []byte, err error) {
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

// pirCombine XORs the two servers' answers into the requested block.
func pirCombine(ansA, ansB []byte) ([]byte, error) {
	if len(ansA) != len(ansB) {
		return nil, fmt.Errorf("pir: answer length mismatch %d vs %d", len(ansA), len(ansB))
	}
	out := make([]byte, len(ansA))
	for i := range out {
		out[i] = ansA[i] ^ ansB[i]
	}
	return out, nil
}

func makeBlocks(r *rng.Rand, n, size int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(r.Uint64())
		}
		blocks[i] = b
	}
	return blocks
}

func twoServers(t *testing.T, blocks [][]byte) (*pirServer, *pirServer) {
	t.Helper()
	a, err := newPIRServer(blocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPIRServer(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestPIRRetrieveCorrectness(t *testing.T) {
	r := rng.NewSeeded(1)
	blocks := makeBlocks(r, 100, 64)
	a, b := twoServers(t, blocks)
	c, err := newPIRClient(rng.NewSeeded(2), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 50, 98, 99} {
		got, err := retrieve(c, a, b, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blocks[idx]) {
			t.Fatalf("block %d not recovered", idx)
		}
	}
}

func TestPIRRetrieveQuick(t *testing.T) {
	r := rng.NewSeeded(3)
	const n = 37 // non-multiple of 8 exercises tail masking
	blocks := makeBlocks(r, n, 16)
	a, b := twoServers(t, blocks)
	c, err := newPIRClient(rng.NewSeeded(4), n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint8) bool {
		idx := int(raw) % n
		got, err := retrieve(c, a, b, idx)
		return err == nil && bytes.Equal(got, blocks[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPIRUnevenBlocksPadded(t *testing.T) {
	blocks := [][]byte{{1, 2, 3}, {4}, {5, 6}}
	a, b := twoServers(t, blocks)
	if a.blockSize != 3 {
		t.Fatalf("BlockSize = %d, want 3", a.blockSize)
	}
	c, err := newPIRClient(rng.NewSeeded(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := retrieve(c, a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{4, 0, 0}) {
		t.Fatalf("padded block = %v", got)
	}
}

func TestPIRQueryVectorsLookRandom(t *testing.T) {
	// Each individual selection vector must be (close to) uniformly
	// random — the privacy property. Check bit balance over many queries.
	c, err := newPIRClient(rng.NewSeeded(6), 64)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		selA, _, err := c.query(7)
		if err != nil {
			t.Fatal(err)
		}
		for _, byteVal := range selA {
			for b := 0; b < 8; b++ {
				if byteVal&(1<<b) != 0 {
					ones++
				}
			}
		}
	}
	total := trials * 64
	frac := float64(ones) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("selection vector bit balance %.3f, want ≈0.5", frac)
	}
}

func TestPIRStatsAccounting(t *testing.T) {
	r := rng.NewSeeded(7)
	blocks := makeBlocks(r, 64, 32)
	a, bsrv := twoServers(t, blocks)
	c, err := newPIRClient(rng.NewSeeded(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := retrieve(c, a, bsrv, i); err != nil {
			t.Fatal(err)
		}
	}
	st := a.stats()
	if st.Queries != 10 {
		t.Fatalf("Queries = %d", st.Queries)
	}
	if st.BytesScanned == 0 || st.UploadBytes != 10*8 || st.DownloadBytes != 10*32 {
		t.Fatalf("stats off: %+v", st)
	}
	// Expected scan: ~half the blocks selected per query.
	expected := int64(10 * 64 * 32 / 2)
	if st.BytesScanned < expected/2 || st.BytesScanned > expected*2 {
		t.Fatalf("BytesScanned = %d, want ≈%d", st.BytesScanned, expected)
	}
}

func TestPIRValidation(t *testing.T) {
	if _, err := newPIRServer(nil); err == nil {
		t.Fatal("expected error for empty database")
	}
	if _, err := newPIRServer([][]byte{{}, {}}); err == nil {
		t.Fatal("expected error for all-empty blocks")
	}
	if _, err := newPIRClient(rng.NewSeeded(1), 0); err == nil {
		t.Fatal("expected error for zero-size client")
	}
	c, _ := newPIRClient(rng.NewSeeded(1), 8)
	if _, _, err := c.query(-1); err == nil {
		t.Fatal("expected error for negative index")
	}
	if _, _, err := c.query(8); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	s, _ := newPIRServer([][]byte{{1}})
	if _, err := s.answer(make([]byte, 9)); err == nil {
		t.Fatal("expected error for wrong selection size")
	}
	if _, err := pirCombine([]byte{1}, []byte{1, 2}); err == nil {
		t.Fatal("expected error for mismatched answers")
	}
}

// retrieve runs the whole two-server protocol against a pair of servers.
func retrieve(c *pirClient, a, b *pirServer, index int) ([]byte, error) {
	selA, selB, err := c.query(index)
	if err != nil {
		return nil, err
	}
	ansA, err := a.answer(selA)
	if err != nil {
		return nil, err
	}
	ansB, err := b.answer(selB)
	if err != nil {
		return nil, err
	}
	return pirCombine(ansA, ansB)
}
