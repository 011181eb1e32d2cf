package pq

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// storeHeader returns the PQSTORE1 magic and a header declaring the given
// shape, with zero provenance fields.
func storeHeader(dim, m, k, n int64) []byte {
	b := []byte(storeMagic)
	for _, v := range []int64{dim, m, k, n, 0, 0, 0, 0, 0, 0} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// TestLoadRefusesLyingHeaders: a header that disagrees with the database it
// is loaded for is refused before it sizes anything — not after trying to
// allocate what it claims.
func TestLoadRefusesLyingHeaders(t *testing.T) {
	for _, c := range []struct {
		name     string
		blob     []byte
		dim, n   int
		wantText string
	}{
		// 120 bytes: dim 4, m 1, k 1 and one zero centroid block, claiming
		// 2^33 code rows (8 GiB) for a database of 10 records.
		{"n = 2^33", append(storeHeader(4, 1, 1, 1<<33), make([]byte, 4*8)...), 4, 10, "rows"},
		// 88 bytes claiming dim 2^31 with 256 centroids: 4 TiB of
		// centroid floats for a database of dimension 4.
		{"dim = 2^31", storeHeader(1<<31, 1, 256, 0), 4, 0, "dimension"},
		{"m > dim", storeHeader(4, 5, 1, 10), 4, 10, "implausible"},
		{"k > 256", storeHeader(4, 1, 257, 10), 4, 10, "implausible"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(c.blob), c.dim, c.n)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.wantText) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.wantText)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", c.name, len(c.blob), alloc)
		}
	}
}

// TestLoadRefusesRetrainConfig: the training config rides in header words
// 5–9, outside the checksum, and a fold's retrain runs it. A config Build
// could not have written — another M or K than the codebook's, a sample
// smaller than K, Iters outside [1, maxIters] — is refused at load, not
// found out by a retrain that fails or runs 2⁴⁰ Lloyd iterations.
func TestLoadRefusesRetrainConfig(t *testing.T) {
	store, err := Build(randVecs(3, 40, 6), TrainConfig{M: 2, K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), 6, 40); err != nil {
		t.Fatalf("unpatched store: %v", err)
	}
	// Words M, K, MaxSample, Iters.
	const m, k, sample, iters = 5, 6, 7, 8
	for _, c := range []struct {
		name  string
		patch map[int]int64
	}{
		{"M 999, MaxSample 3, Iters 2^40", map[int]int64{m: 999, sample: 3, iters: 1 << 40}},
		{"M ≠ m", map[int]int64{m: 3}},
		{"K ≠ k", map[int]int64{k: 16}},
		{"MaxSample < K", map[int]int64{sample: 7}},
		{"Iters 0", map[int]int64{iters: 0}},
		{"Iters 65", map[int]int64{iters: maxIters + 1}},
		{"Iters 2^40", map[int]int64{iters: 1 << 40}},
	} {
		blob := bytes.Clone(buf.Bytes())
		for word, v := range c.patch {
			binary.LittleEndian.PutUint64(blob[len(storeMagic)+8*word:], uint64(v))
		}
		if _, err := Load(bytes.NewReader(blob), 6, 40); err == nil || !strings.Contains(err.Error(), "training config") {
			t.Errorf("%s: err = %v, want a refused training config", c.name, err)
		}
	}
}

// FuzzLoad feeds Load mutations of small valid stores, under the shape each
// was saved with or any other small one. Whatever arrives, Load returns an
// error or a store of exactly the caller's shape whose code arena is the
// code bytes it consumed and whose training config Build could have
// written — never a panic, and nothing sized by a count the input merely
// claims.
func FuzzLoad(f *testing.F) {
	for _, c := range []struct{ n, dim, m, k int }{{12, 4, 2, 4}, {30, 5, 5, 8}, {2, 3, 1, 1}} {
		store, err := Build(randVecs(uint64(c.n), c.n, c.dim), TrainConfig{M: c.m, K: c.k, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(c.dim), uint8(c.n))
	}
	f.Fuzz(func(t *testing.T, blob []byte, dim, n uint8) {
		r := bytes.NewReader(blob)
		s, err := Load(r, int(dim), int(n))
		if err != nil {
			return
		}
		if s.Book.Dim() != int(dim) || s.Codes.Len() != int(n) || s.Codes.M() != s.Book.M() {
			t.Fatalf("loaded dim %d, %d rows of %d bytes, M %d; caller said dim %d, %d rows",
				s.Book.Dim(), s.Codes.Len(), s.Codes.M(), s.Book.M(), dim, n)
		}
		if c := s.Cfg; c.M != s.Book.M() || c.K != s.Book.K() || c.MaxSample < c.K || c.Iters < 1 || c.Iters > maxIters {
			t.Fatalf("loaded training config %+v for a codebook of m=%d k=%d", c, s.Book.M(), s.Book.K())
		}
		fixed := len(storeMagic) + 10*8 + 8*s.Book.K()*s.Book.Dim() + 4
		if consumed := len(blob) - r.Len(); s.Codes.Len()*s.Codes.M() != consumed-fixed {
			t.Fatalf("%d rows of %d code bytes from %d bytes consumed past %d of header, centroids and checksum",
				s.Codes.Len(), s.Codes.M(), consumed, fixed)
		}
	})
}
