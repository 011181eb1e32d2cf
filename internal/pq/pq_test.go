package pq

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func randVecs(seed uint64, n, dim int) [][]float64 {
	r := rng.NewSeeded(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = rng.GaussianVec(r, dim, 3)
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
	if _, err := Train(randVecs(1, 50, 4), TrainConfig{M: 8}); err == nil {
		t.Fatal("expected error for M > dim")
	}
}

func TestSubspaceLayout(t *testing.T) {
	// dim=10, M=4: widths must be 3,3,2,2 and cover [0,10) contiguously.
	cb := newCodebook(10, 4, 16)
	wantW := []int{3, 3, 2, 2}
	off := 0
	for j := 0; j < 4; j++ {
		if cb.width[j] != wantW[j] || cb.off[j] != off {
			t.Fatalf("subspace %d: off=%d width=%d, want off=%d width=%d",
				j, cb.off[j], cb.width[j], off, wantW[j])
		}
		off += cb.width[j]
	}
	if off != 10 {
		t.Fatalf("subspaces cover %d dims, want 10", off)
	}
}

// TestEncodeNearestCentroid checks the encoder invariant: every emitted
// code is the argmin centroid of its subspace.
func TestEncodeNearestCentroid(t *testing.T) {
	const n, dim = 300, 10
	vecs := randVecs(2, n, dim)
	store, err := Build(vecs, TrainConfig{M: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cb := store.Book
	for id := 0; id < n; id++ {
		row := store.Codes.Row(id)
		for j := 0; j < cb.M(); j++ {
			o, w := cb.off[j], cb.width[j]
			sub := vecs[id][o : o+w]
			flat := cb.cents[j]
			got := vec.SqDist(sub, flat[int(row[j])*w:int(row[j])*w+w])
			for c := 0; c < cb.K(); c++ {
				if d := vec.SqDist(sub, flat[c*w:c*w+w]); d < got-1e-12 {
					t.Fatalf("point %d subspace %d: code %d at %g but centroid %d at %g",
						id, j, row[j], got, c, d)
				}
			}
		}
	}
}

// TestScannerADTConsistency checks the asymmetric-distance contract: for
// every candidate, Scanner.Dist, Scanner.DistBlock (the dispatched kernel)
// and the explicit sum of subspace distances to the assigned centroids all
// agree bit-for-bit.
func TestScannerADTConsistency(t *testing.T) {
	const n, dim = 400, 13 // 13 % M != 0 exercises the ragged layout
	vecs := randVecs(3, n, dim)
	store, err := Build(vecs, TrainConfig{M: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cb := store.Book
	queries := randVecs(4, 10, dim)

	var sc Scanner
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	blk := make([]float64, n)
	for _, q := range queries {
		sc.Prepare(cb, store.Codes, q)
		sc.DistBlock(blk, ids)
		for id := 0; id < n; id++ {
			row := store.Codes.Row(id)
			var want float64
			for j := 0; j < cb.M(); j++ {
				o, w := cb.off[j], cb.width[j]
				c := int(row[j])
				want += vec.SqDist(q[o:o+w], cb.cents[j][c*w:c*w+w])
			}
			if got := sc.Dist(int32(id)); got != want {
				t.Fatalf("Dist(%d) = %g, want %g", id, got, want)
			}
			if blk[id] != want {
				t.Fatalf("DistBlock[%d] = %g, want %g", id, blk[id], want)
			}
		}
	}
}

// TestBuildDeterminism: same corpus + seed must yield identical codebooks
// and codes (the compactor's retrain rule depends on it).
func TestBuildDeterminism(t *testing.T) {
	vecs := randVecs(5, 500, 8)
	a, err := Build(vecs, TrainConfig{M: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(vecs, TrainConfig{M: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Codes.Raw(), b.Codes.Raw()) {
		t.Fatal("same seed produced different codes")
	}
	for j, block := range a.Book.Centroids() {
		other := b.Book.Centroids()[j]
		for i := range block {
			if block[i] != other[i] {
				t.Fatalf("subspace %d centroid float %d differs", j, i)
			}
		}
	}
}

func TestNeedsRetrain(t *testing.T) {
	s := &Store{TrainedOn: 100}
	for n, want := range map[int]bool{100: false, 199: false, 200: true, 500: true} {
		if got := s.NeedsRetrain(n); got != want {
			t.Fatalf("NeedsRetrain(%d) = %v, want %v", n, got, want)
		}
	}
	if (&Store{}).NeedsRetrain(1000) {
		t.Fatal("zero-valued store must never request a retrain")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	vecs := randVecs(6, 350, 9)
	orig, err := Build(vecs, TrainConfig{M: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	blob := saveStream(t, orig)
	got, err := loadStream(blob, 9, 350)
	if err != nil {
		t.Fatal(err)
	}
	if got.Book.Dim() != 9 || got.Book.M() != 3 || got.Book.K() != LUTStride {
		t.Fatalf("loaded shape dim=%d m=%d k=%d", got.Book.Dim(), got.Book.M(), got.Book.K())
	}
	if got.TrainedOn != orig.TrainedOn || got.Cfg != orig.Cfg {
		t.Fatalf("loaded provenance %+v / %+v, want %+v / %+v",
			got.TrainedOn, got.Cfg, orig.TrainedOn, orig.Cfg)
	}
	if !bytes.Equal(got.Codes.Raw(), orig.Codes.Raw()) {
		t.Fatal("codes changed across round-trip")
	}
	for j, block := range orig.Book.Centroids() {
		other := got.Book.Centroids()[j]
		for i := range block {
			if block[i] != other[i] {
				t.Fatalf("subspace %d centroid float %d changed across round-trip", j, i)
			}
		}
	}

	// One flipped code byte must surface as a checksum failure, not
	// skewed distances.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-10] ^= 0x40
	if _, err := loadStream(bad, 9, 350); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted store loaded: %v", err)
	}
	// Truncation and garbage must error cleanly.
	if _, err := loadStream(blob[:len(blob)/2], 9, 350); err == nil {
		t.Fatal("truncated store loaded")
	}
	if _, err := loadStream([]byte("NOTAPQST0RE"), 9, 350); err == nil {
		t.Fatal("garbage loaded")
	}
	// A section read for another database's shape fails, whichever way it
	// differs.
	if _, err := loadStream(blob, 10, 350); err == nil {
		t.Fatal("store loaded under the wrong dimension")
	}
	if _, err := loadStream(blob, 9, 349); err == nil {
		t.Fatal("store loaded under the wrong record count")
	}
}

func TestSaveIncompleteStore(t *testing.T) {
	e := frame.NewEncoder(io.Discard)
	if (&Store{}).Save(e); e.Close() == nil {
		t.Fatal("expected error saving incomplete store")
	}
}

// TestBuildGolden pins codebooks and codes at subspace widths on both
// sides of the inline path's w < 8 cut-off — and on one core and four:
// training and encoding are parallel, and must not show it. The w = 7
// digests are what the per-row nearest-centroid loops produced before the
// flat routine replaced them; the other two were recorded later.
func TestBuildGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		seed        uint64
		n, dim, m   int
		book, codes string
	}{
		{5, 2000, 24, 8, "9a9f4438552ca4cc", "dab7a54bdf191662"}, // w = 3
		{6, 1500, 20, 3, "47dcace0a0f56db1", "bcfd129b0db874b1"}, // w = 7, 7, 6
		{7, 900, 64, 4, "2d7e6397e72cab16", "79c339b6c13ddd0a"},  // w = 16
	} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			st, err := Build(randVecs(c.seed, c.n, c.dim), TrainConfig{M: c.m, Seed: c.seed + 100})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var b [8]byte
			for _, block := range st.Book.Centroids() {
				for _, v := range block {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != c.book {
				t.Errorf("seed %d GOMAXPROCS=%d: codebook digest %s, want %s", c.seed, procs, got, c.book)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(st.Codes.Raw()[:c.n*c.m]))[:16]; got != c.codes {
				t.Errorf("seed %d GOMAXPROCS=%d: codes digest %s, want %s", c.seed, procs, got, c.codes)
			}
		}
	}
}

// TestEncodeAllMatchesEncodeInto: the bulk encoder writes the codes
// of the full-scan single-vector path, on training and on unseen vectors, at
// ragged subspace widths, on one core and four.
func TestEncodeAllMatchesEncodeInto(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ dim, m int }{{24, 8}, {20, 3}, {64, 4}, {5, 5}} {
		train := randVecs(21, 1200, c.dim)
		book, err := Train(train, TrainConfig{M: c.m, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		vecs := append(randVecs(22, 700, c.dim), train[:300]...)
		want := make([]byte, c.m)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			codes := book.EncodeAll(vecs)
			for i, v := range vecs {
				book.EncodeInto(want, v)
				if !bytes.Equal(codes.Row(i), want) {
					t.Fatalf("dim=%d m=%d GOMAXPROCS=%d: vector %d encoded %v, EncodeInto %v", c.dim, c.m, procs, i, codes.Row(i), want)
				}
			}
		}
	}
}

// TestFillLUTMatchesSqDist: the table a query scans is, entry for entry,
// the per-row vec.SqDist it was before SqDistRows filled it.
func TestFillLUTMatchesSqDist(t *testing.T) {
	for _, c := range []struct{ dim, m int }{{24, 8}, {20, 3}, {64, 4}} {
		st, err := Build(randVecs(11, 400, c.dim), TrainConfig{M: c.m, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		q := randVecs(12, 1, c.dim)[0]
		lut := make([]float64, c.m*LUTStride)
		st.Book.FillLUT(lut, q)
		for j := 0; j < c.m; j++ {
			o, w := st.Book.off[j], st.Book.width[j]
			for k := 0; k < st.Book.K(); k++ {
				want := vec.SqDist(q[o:o+w], st.Book.cents[j][k*w:(k+1)*w])
				if got := lut[j*LUTStride+k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim=%d m=%d: lut[%d][%d] = %v, SqDist %v", c.dim, c.m, j, k, got, want)
				}
			}
		}
	}
}

// sapLike returns n deep-like (d = 96) vectors under SAP encryption at the
// standing benchmark's operating point (s = 1024, β = 0.5).
func sapLike(tb testing.TB, n int) [][]float64 {
	tb.Helper()
	d := dataset.DeepLike(n, 0, 1)
	key, err := dcpe.KeyGen(rng.NewSeeded(1), d.Dim, 1024, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	sap := make([][]float64, n)
	for i, v := range d.Train {
		sap[i] = key.Encrypt(v)
	}
	return sap
}

// BenchmarkPQTrain is the codebook half of a scale-pq build: 32 subspaces
// of three columns, 256 centroids each, trained side by side on an
// 8192-point sample of 30 000 SAP ciphertexts (d = 96).
func BenchmarkPQTrain(b *testing.B) {
	sap := sapLike(b, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(sap, TrainConfig{M: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPQEncodeAll is the encoding half: the 30 000 ciphertexts into
// M = 32 codes each.
func BenchmarkPQEncodeAll(b *testing.B) {
	sap := sapLike(b, 30000)
	book, err := Train(sap, TrainConfig{M: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := book.EncodeAll(sap); cs.Len() != len(sap) {
			b.Fatalf("encoded %d of %d", cs.Len(), len(sap))
		}
	}
}
