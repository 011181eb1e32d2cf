package pq

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
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
	if _, err := Train(randVecs(1, 50, 4), TrainConfig{M: 2, K: 4, Iters: maxIters + 1}); err == nil {
		t.Fatalf("expected error for Iters = %d", maxIters+1)
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
	store, err := Build(vecs, TrainConfig{M: 4, K: 16, Seed: 2})
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
	store, err := Build(vecs, TrainConfig{M: 4, K: 32, Seed: 3})
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
	a, err := Build(vecs, TrainConfig{M: 4, K: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(vecs, TrainConfig{M: 4, K: 16, Seed: 9})
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

func TestCodeStoreSnapshotDiscipline(t *testing.T) {
	s := NewCodeStoreN(2, 0)
	s.AppendRow([]byte{1, 2})
	s.AppendRow([]byte{3, 4})
	pub := s.Snapshot()

	// Extend must not change any published view's length or rows.
	ext := pub.Extend([]byte{5, 6})
	if pub.Len() != 2 || s.Len() != 2 || ext.Len() != 3 {
		t.Fatalf("lengths after Extend: pub=%d s=%d ext=%d", pub.Len(), s.Len(), ext.Len())
	}
	if !bytes.Equal(ext.Row(2), []byte{5, 6}) || !bytes.Equal(pub.Row(1), []byte{3, 4}) {
		t.Fatalf("rows corrupted after Extend: ext.Row(2)=%v pub.Row(1)=%v", ext.Row(2), pub.Row(1))
	}

	// Gather copies row ids[j] to row j in a private arena, zero at -1.
	g := ext.Gather([]int{2, -1, 0})
	if g.Len() != 3 {
		t.Fatalf("Gather len = %d, want 3", g.Len())
	}
	if !bytes.Equal(g.Row(0), []byte{5, 6}) || !bytes.Equal(g.Row(1), []byte{0, 0}) ||
		!bytes.Equal(g.Row(2), []byte{1, 2}) {
		t.Fatalf("Gather rows wrong: %v %v %v", g.Row(0), g.Row(1), g.Row(2))
	}
	// ...and must not share backing with the source.
	g.Row(2)[0] = 99
	if ext.Row(0)[0] != 1 {
		t.Fatal("Gather shares its arena with the source")
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
	orig, err := Build(vecs, TrainConfig{M: 3, K: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	got, err := Load(bytes.NewReader(blob), 9, 350)
	if err != nil {
		t.Fatal(err)
	}
	if got.Book.Dim() != 9 || got.Book.M() != 3 || got.Book.K() != 32 {
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

	// One flipped code byte must surface as a CRC failure, not skewed
	// distances.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-10] ^= 0x40
	if _, err := Load(bytes.NewReader(bad), 9, 350); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corrupted store loaded: %v", err)
	}
	// Truncation and garbage must error cleanly.
	if _, err := Load(bytes.NewReader(blob[:len(blob)/2]), 9, 350); err == nil {
		t.Fatal("truncated store loaded")
	}
	if _, err := Load(strings.NewReader("NOTAPQST0RE"), 9, 350); err == nil {
		t.Fatal("garbage magic loaded")
	}
	// A store of another database's shape is refused, whichever way it
	// differs.
	if _, err := Load(bytes.NewReader(blob), 10, 350); err == nil {
		t.Fatal("store loaded under the wrong dimension")
	}
	if _, err := Load(bytes.NewReader(blob), 9, 349); err == nil {
		t.Fatal("store loaded under the wrong record count")
	}
}

func TestSaveIncompleteStore(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Store{}).Save(&buf); err == nil {
		t.Fatal("expected error saving incomplete store")
	}
}

// TestBuildGolden pins codebooks and codes to what the per-row nearest-
// centroid loops produced before the flat routine replaced them (digests
// recorded at that commit), at subspace widths on both sides of the inline
// path's w < 8 cut-off — and on one core and four: training and encoding
// are parallel, and must not show it.
func TestBuildGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		seed         uint64
		n, dim, m, k int
		book, codes  string
	}{
		{5, 2000, 24, 8, 64, "b8f05bc2d287c58d", "412277d085438bcd"}, // w = 3
		{6, 1500, 20, 3, 0, "47dcace0a0f56db1", "bcfd129b0db874b1"},  // w = 7, 7, 6
		{7, 900, 64, 4, 32, "0217cc80072a4f11", "192cd30ab6c05c9e"},  // w = 16
	} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			st, err := Build(randVecs(c.seed, c.n, c.dim), TrainConfig{M: c.m, K: c.k, Seed: c.seed + 100})
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
// ragged subspace widths, on one core and four, and leaves a nil vector's
// row zero.
func TestEncodeAllMatchesEncodeInto(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ dim, m, k int }{{24, 8, 64}, {20, 3, 0}, {64, 4, 32}, {5, 5, 7}} {
		train := randVecs(21, 1200, c.dim)
		book, err := Train(train, TrainConfig{M: c.m, K: c.k, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		vecs := append(randVecs(22, 700, c.dim), train[:300]...)
		vecs[3], vecs[257], vecs[999] = nil, nil, nil // dead rows stay zero
		want := make([]byte, c.m)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			codes := book.EncodeAll(vecs)
			for i, v := range vecs {
				clear(want)
				if v != nil {
					book.EncodeInto(want, v)
				}
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
		st, err := Build(randVecs(11, 400, c.dim), TrainConfig{M: c.m, K: 32, Seed: 11})
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
