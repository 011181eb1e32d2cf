package eval

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"testing"
	"time"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
)

// rssann is the RS-SANN baseline [25]: database vectors are AES-CTR
// encrypted on the server next to an LSH index. The server's role is bucket
// lookup and ciphertext shipping; the user decrypts every candidate and
// computes exact distances locally — the heavy user-side involvement the
// paper's P3 property argues against.
type rssann struct {
	dim    int
	index  *lshIndex
	cts    [][]byte // iv ‖ AES-CTR(vector bytes), one per database vector
	aesKey []byte

	// Probes is the multi-probe budget per query (recall knob).
	Probes int
	// MaxCandidates caps the number of ciphertexts shipped (0 = all).
	MaxCandidates int
}

// rssannConfig parameterizes construction.
type rssannConfig struct {
	LSH           lshConfig
	Probes        int
	MaxCandidates int
	Seed          uint64
}

// newRSSANN encrypts the database and builds the LSH index (the data
// owner's setup step).
func newRSSANN(data [][]float64, cfg rssannConfig) (*rssann, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("rssann: empty database")
	}
	cfg.LSH.Dim = len(data[0])
	index, err := newLSH(cfg.LSH)
	if err != nil {
		return nil, err
	}
	r := rng.NewSeeded(cfg.Seed ^ 0x55a)
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	s := &rssann{
		dim:           len(data[0]),
		index:         index,
		cts:           make([][]byte, len(data)),
		aesKey:        key,
		Probes:        cfg.Probes,
		MaxCandidates: cfg.MaxCandidates,
	}
	for id, v := range data {
		index.insert(id, v)
		iv := make([]byte, aes.BlockSize)
		for i := range iv {
			iv[i] = byte(r.Uint64())
		}
		plain := frame.AppendFloatRun(nil, v)
		ct := make([]byte, len(iv)+len(plain))
		copy(ct, iv)
		cipher.NewCTR(block, iv).XORKeyStream(ct[len(iv):], plain)
		s.cts[id] = ct
	}
	return s, nil
}

// name implements system.
func (s *rssann) name() string { return "RS-SANN" }

// search implements system: server-side filter via LSH, user-side decrypt
// and exact refine.
func (s *rssann) search(q []float64, k int) ([]int, costSplit, error) {
	if len(q) != s.dim {
		return nil, costSplit{}, fmt.Errorf("rssann: query dim %d, want %d", len(q), s.dim)
	}
	var c costSplit
	c.Rounds = 1

	// User hashes the query (the LSH keys are user-side secret material in
	// RS-SANN; hashing is cheap).
	start := time.Now()
	// Upload: the per-table bucket keys.
	c.UploadBytes = int64(8 * len(s.index.tables))
	c.UserTime += time.Since(start)

	// Server: bucket lookups, gather encrypted candidates.
	start = time.Now()
	cands := s.index.candidates(q, s.Probes, s.MaxCandidates)
	var payload [][]byte
	for _, id := range cands {
		payload = append(payload, s.cts[id])
		c.DownloadBytes += int64(len(s.cts[id]))
	}
	c.ServerTime += time.Since(start)
	c.Candidates = len(cands)

	// User: decrypt every candidate, compute exact distances, select top-k.
	start = time.Now()
	block, err := aes.NewCipher(s.aesKey)
	if err != nil {
		return nil, c, err
	}
	decrypted := make(map[int][]float64, len(cands))
	for i, ct := range payload {
		iv := ct[:aes.BlockSize]
		plain := make([]byte, len(ct)-aes.BlockSize)
		cipher.NewCTR(block, iv).XORKeyStream(plain, ct[aes.BlockSize:])
		decrypted[cands[i]] = frame.NewReader(plain).FloatRun(s.dim)
	}
	ids := topKByDistance(decrypted, cands, q, k)
	c.UserTime += time.Since(start)
	return ids, c, nil
}

func TestRSSANN(t *testing.T) {
	w := newWorld(t, 2000, 20, 10)
	sys, err := newRSSANN(w.data.Train, rssannConfig{
		LSH:    lshConfig{Tables: 10, Hashes: 6, W: 1.0, Seed: 1},
		Probes: 4,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.6 {
		t.Fatalf("RS-SANN recall = %.3f, want ≥ 0.6", recall)
	}
	if costs.UserTime == 0 || costs.ServerTime == 0 {
		t.Fatalf("costs not attributed: %+v", costs)
	}
	if costs.DownloadBytes == 0 || costs.Candidates == 0 {
		t.Fatalf("transfer accounting empty: %+v", costs)
	}
	// The defining cost shape: RS-SANN ships ciphertexts and burns user
	// time on decryption — download must scale with candidates.
	perCand := costs.DownloadBytes / int64(costs.Candidates)
	wantCt := int64(16 + 8*w.data.Dim)
	if perCand != wantCt {
		t.Fatalf("per-candidate download %d bytes, want %d", perCand, wantCt)
	}
}

func TestRSSANNValidation(t *testing.T) {
	if _, err := newRSSANN(nil, rssannConfig{}); err == nil {
		t.Fatal("expected error for empty database")
	}
	w := newWorld(t, 100, 1, 1)
	sys, err := newRSSANN(w.data.Train, rssannConfig{LSH: lshConfig{Seed: 2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.search(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}
