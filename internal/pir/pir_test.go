package pir

import (
	"bytes"
	"testing"
	"testing/quick"

	"ppanns/internal/rng"
)

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

func twoServers(t *testing.T, blocks [][]byte) (*Server, *Server) {
	t.Helper()
	a, err := NewServer(blocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewServer(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestRetrieveCorrectness(t *testing.T) {
	r := rng.NewSeeded(1)
	blocks := makeBlocks(r, 100, 64)
	a, b := twoServers(t, blocks)
	c, err := NewClient(rng.NewSeeded(2), 100)
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

func TestRetrieveQuick(t *testing.T) {
	r := rng.NewSeeded(3)
	const n = 37 // non-multiple of 8 exercises tail masking
	blocks := makeBlocks(r, n, 16)
	a, b := twoServers(t, blocks)
	c, err := NewClient(rng.NewSeeded(4), n)
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

func TestUnevenBlocksPadded(t *testing.T) {
	blocks := [][]byte{{1, 2, 3}, {4}, {5, 6}}
	a, b := twoServers(t, blocks)
	if a.blockSize != 3 {
		t.Fatalf("BlockSize = %d, want 3", a.blockSize)
	}
	c, err := NewClient(rng.NewSeeded(5), 3)
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

func TestQueryVectorsLookRandom(t *testing.T) {
	// Each individual selection vector must be (close to) uniformly
	// random — the privacy property. Check bit balance over many queries.
	c, err := NewClient(rng.NewSeeded(6), 64)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		selA, _, err := c.Query(7)
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

func TestStatsAccounting(t *testing.T) {
	r := rng.NewSeeded(7)
	blocks := makeBlocks(r, 64, 32)
	a, bsrv := twoServers(t, blocks)
	c, err := NewClient(rng.NewSeeded(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := retrieve(c, a, bsrv, i); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
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

func TestValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("expected error for empty database")
	}
	if _, err := NewServer([][]byte{{}, {}}); err == nil {
		t.Fatal("expected error for all-empty blocks")
	}
	if _, err := NewClient(rng.NewSeeded(1), 0); err == nil {
		t.Fatal("expected error for zero-size client")
	}
	c, _ := NewClient(rng.NewSeeded(1), 8)
	if _, _, err := c.Query(-1); err == nil {
		t.Fatal("expected error for negative index")
	}
	if _, _, err := c.Query(8); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	s, _ := NewServer([][]byte{{1}})
	if _, err := s.Answer(make([]byte, 9)); err == nil {
		t.Fatal("expected error for wrong selection size")
	}
	if _, err := Combine([]byte{1}, []byte{1, 2}); err == nil {
		t.Fatal("expected error for mismatched answers")
	}
}

// retrieve runs the whole two-server protocol against a pair of servers.
func retrieve(c *Client, a, b *Server, index int) ([]byte, error) {
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
