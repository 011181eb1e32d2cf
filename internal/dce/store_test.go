package dce

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// storeWorld builds a key, a store of n encrypted Gaussian vectors, the
// matching standalone records, and one trapdoor.
func storeWorld(t *testing.T, dim, n int) (*Key, *CiphertextStore, [][]float64, []float64, *Trapdoor) {
	t.Helper()
	r := rng.NewSeeded(101)
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	store := NewCiphertextStoreN(k.CiphertextDim(), 0)
	cts := make([][]float64, n)
	for i := 0; i < n; i++ {
		cts[i] = k.Encrypt(rng.Gaussian(r, nil, dim))
		if id := store.AppendRecord(cts[i]); id != i {
			t.Fatalf("AppendRecord returned id %d, want %d", id, i)
		}
	}
	q := rng.Gaussian(r, nil, dim)
	return k, store, cts, q, k.TrapGen(q)
}

func TestStoreMatchesPointerDistanceComp(t *testing.T) {
	_, store, cts, _, tq := storeWorld(t, 13, 8)
	for o := 0; o < len(cts); o++ {
		for p := 0; p < len(cts); p++ {
			want := DistanceComp(cts[o], cts[p], tq)
			got := store.DistanceComp(o, p, tq)
			if got != want {
				t.Fatalf("store.DistanceComp(%d,%d) = %g, on the records %g", o, p, got, want)
			}
		}
	}
}

func TestStoreViewsShareArena(t *testing.T) {
	_, store, cts, _, _ := storeWorld(t, 6, 3)
	view := store.Record(1)
	for i := range view {
		if view[i] != cts[1][i] {
			t.Fatalf("view mismatch at %d", i)
		}
	}
	// Views alias the arena, not copies.
	store.Record(1)[0] = 42
	if view[0] != 42 {
		t.Fatal("the record view does not alias the arena")
	}
	d := store.CtDim()
	o12, p34 := store.O12(1), store.P34(1)
	if len(o12) != 2*d || len(p34) != 2*d {
		t.Fatalf("half-view lengths %d/%d, want %d", len(o12), len(p34), 2*d)
	}
}

// TestStoreGather covers the one way records are copied between stores:
// record j of the result is source record slots[j], a slot may be taken
// twice, and the arena is private.
func TestStoreGather(t *testing.T) {
	_, store, _, _, _ := storeWorld(t, 5, 4)
	slots := []int{2, 0, 3, 2}
	g := store.Gather(slots)
	if g.Len() != 4 || store.Len() != 4 {
		t.Fatalf("gathered len=%d, source len=%d", g.Len(), store.Len())
	}
	for j, slot := range slots {
		if !slices.Equal(g.Record(j), store.Record(slot)) {
			t.Fatalf("record %d is not source record %d", j, slot)
		}
	}
	g.Record(0)[0] = 42
	if store.Record(2)[0] == 42 {
		t.Fatal("Gather shares its arena with the source")
	}
}

// TestStoreGatherZeroesDeadBytes: a record the slot list leaves out — a
// deleted one, at a fold — is not copied: none of its bytes is anywhere in
// the gathered arena, pad and slack included.
func TestStoreGatherZeroesDeadBytes(t *testing.T) {
	const ctDim = 4
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	for i := range 2 {
		rec := make([]float64, 4*ctDim)
		for c := range rec {
			rec[c] = float64(i*100 + c + 1)
		}
		e.FloatRun(rec)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d := frame.NewDecoder(bytes.NewReader(buf.Bytes()))
	loaded := LoadStore(d, ctDim, 2)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	g := loaded.Gather([]int{1})
	if g.Len() != 1 || g.Record(0)[0] != 101 {
		t.Fatalf("gathered %d records, the first starting %v", g.Len(), g.Record(0)[0])
	}
	arena := g.rows.Raw()
	for _, f := range arena[:cap(arena)] {
		if f >= 1 && f <= 4*ctDim {
			t.Fatalf("the left-out record's float %v is in the gathered arena", f)
		}
	}
}

func TestStoreSignAgainstPlainDistances(t *testing.T) {
	dim, n := 9, 12
	r := rng.NewSeeded(303)
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float64, n)
	store := NewCiphertextStoreN(k.CiphertextDim(), n)
	for i := range vecs {
		vecs[i] = rng.Gaussian(r, nil, dim)
		copy(store.Record(i), k.Encrypt(vecs[i]))
	}
	q := rng.Gaussian(r, nil, dim)
	tq := k.TrapGen(q)
	for o := 0; o < n; o++ {
		for p := 0; p < n; p++ {
			if o == p {
				continue
			}
			do, dp := vec.SqDist(vecs[o], q), vec.SqDist(vecs[p], q)
			if math.Abs(do-dp) < 1e-9 {
				continue
			}
			if got, want := store.DistanceComp(o, p, tq) < 0, do < dp; got != want {
				t.Fatalf("sign wrong for pair (%d,%d)", o, p)
			}
		}
	}
}

// saveLoad round-trips store through Save and LoadStore and returns the
// loaded store and the number of bytes saved.
func saveLoad(t *testing.T, store *CiphertextStore) (*CiphertextStore, int) {
	t.Helper()
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	store.Save(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d := frame.NewDecoder(bytes.NewReader(buf.Bytes()))
	back := LoadStore(d, store.CtDim(), store.Len())
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return back, buf.Len()
}

// TestStoreSaveLoadRoundTrip: a store comes back with the same shape and
// comparisons in an aligned arena; a record the input does not hold fails
// the load.
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	_, store, _, _, tq := storeWorld(t, 7, 5)
	clone, _ := saveLoad(t, store)
	if clone.Len() != store.Len() || clone.CtDim() != store.CtDim() {
		t.Fatalf("clone shape %d/%d, want %d/%d", clone.Len(), clone.CtDim(), store.Len(), store.CtDim())
	}
	if clone.DistanceComp(0, 1, tq) != store.DistanceComp(0, 1, tq) || !vec.Aligned(clone.rows.Raw()) {
		t.Fatal("clone comparisons differ, or its arena is not aligned")
	}
	for slot := range store.Len() {
		if !slices.Equal(clone.Record(slot), store.Record(slot)) {
			t.Fatalf("record %d changed in the round trip", slot)
		}
	}
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	store.Save(e)
	e.Close()
	d := frame.NewDecoder(bytes.NewReader(buf.Bytes()))
	if LoadStore(d, store.CtDim(), 6); d.Err() == nil {
		t.Fatal("a sixth record loaded from a five-record input")
	}
}

func TestStoreAppendMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewCiphertextStoreN(8, 0)
	s.AppendRecord(make([]float64, 4*8-5))
}

func TestEncryptRecordMatchesEncrypt(t *testing.T) {
	// Key.Encrypt draws from the key's own stream; handed that same stream,
	// the bulk path (Encryptor.EncryptRecords into a store record) must
	// write the same bits, and the store must compare the record as
	// DistanceComp does.
	k, err := KeyGen(rng.NewSeeded(77), 10)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := KeyGen(rng.NewSeeded(77), 10)
	r := rng.NewSeeded(78)
	v := rng.Gaussian(r, nil, 10)
	rec := k.Encrypt(v)
	if len(rec) != 4*k.CiphertextDim() {
		t.Fatalf("record length %d, want %d", len(rec), 4*k.CiphertextDim())
	}
	store := NewCiphertextStoreN(twin.CiphertextDim(), 1)
	twin.NewEncryptor().EncryptRecords([]*rng.Rand{twin.rnd}, [][]float64{v}, [][]float64{store.Record(0)})
	for j, x := range store.Record(0) {
		if math.Float64bits(x) != math.Float64bits(rec[j]) {
			t.Fatalf("float %d: EncryptRecords %v, Encrypt %v", j, x, rec[j])
		}
	}
	tq := k.TrapGen(rng.Gaussian(r, nil, 10))
	if store.DistanceComp(0, 0, tq) != DistanceComp(rec, rec, tq) {
		t.Fatal("the store record disagrees with the record it copies")
	}
}

// TestSnapshotTombstone covers the copy-on-write publication behind core's
// snapshots: a copy of a store's header shares the arena, and appending to
// the copy leaves the receiver's length and records as they were, whether
// the append moves the full arena or, after Reserve, writes in place.
func TestSnapshotTombstone(t *testing.T) {
	const ctDim, n = 6, 5
	s := NewCiphertextStoreN(ctDim, n)
	for i := 0; i < n; i++ {
		rec := s.Record(i)
		for j := range rec {
			rec[j] = float64(i*100 + j + 1)
		}
	}

	snap := *s
	// Appending to the copy must be invisible to the receiver.
	id := snap.AppendRecord(make([]float64, 4*ctDim))
	if id != n {
		t.Fatalf("snapshot append landed at %d, want %d", id, n)
	}
	if s.Len() != n || s.Record(n - 1)[0] != float64((n-1)*100+1) {
		t.Fatalf("append to the copy grew the receiver to %d records", s.Len())
	}
	// A second-generation copy sees the first's state, and an append
	// within reserved capacity leaves it as it was.
	snap.Reserve(1)
	snap2 := snap
	snap3 := snap2
	snap3.AppendRecord(make([]float64, 4*ctDim))
	if &snap3.Record(0)[0] != &snap2.Record(0)[0] {
		t.Fatal("an append within capacity moved the arena")
	}
	if snap2.Len() != n+1 || snap3.Len() != n+2 {
		t.Fatalf("second-generation copies inconsistent: len %d and %d", snap2.Len(), snap3.Len())
	}
}

// TestDistanceCompHalves checks the cross-store comparison entry point
// agrees with the in-store kernel.
func TestDistanceCompHalves(t *testing.T) {
	const ctDim, n = 8, 4
	s := NewCiphertextStoreN(ctDim, n)
	for i := 0; i < n; i++ {
		rec := s.Record(i)
		for j := range rec {
			rec[j] = float64((i+1)*(j+2)) * 0.25
		}
	}
	q := make([]float64, ctDim)
	for j := range q {
		q[j] = float64(j+1) * 0.5
	}
	for o := 0; o < n; o++ {
		for p := 0; p < n; p++ {
			want := s.DistanceComp(o, p, &Trapdoor{Q: q})
			got := DistanceCompHalves(s.O12(o), s.P34(p), q)
			if got != want {
				t.Fatalf("DistanceCompHalves(%d, %d) = %g, in-store %g", o, p, got, want)
			}
		}
	}
}

// refEncrypt is Enc for one record on its own, the body Encryptor ran
// before it encrypted in blocks, drawing the record's randomness from r:
// the oracle every block is held to bit for bit.
func refEncrypt(k *Key, r *rng.Rand, p, rec []float64) {
	rs := drawEncRand(r)
	check := k.pairTransform(nil, p, +1)
	hat := k.pi1.Apply(nil, check)
	alpha1, alpha2 := rs[0], rs[1]
	rp1, rp2, rp3 := rs[2], rs[3], rs[4]
	normSq := k.scale * k.scale * vec.SqNorm(p)
	gamma := (normSq - rp1*k.r1 - rp2*k.r2 - rp3*k.r3) / k.r4

	sub := k.half + 4
	p1, p2 := make([]float64, sub), make([]float64, sub)
	copy(p1, hat[:k.half])
	p1[k.half] = alpha1
	p1[k.half+1] = -alpha1
	p1[k.half+2] = rp1
	p1[k.half+3] = rp2
	copy(p2, hat[k.half:])
	p2[k.half] = alpha2
	p2[k.half+1] = alpha2
	p2[k.half+2] = rp3
	p2[k.half+3] = gamma

	enc := make([]float64, 2*sub)
	k.m1.VecMul(enc[:sub], p1)
	k.m2.VecMul(enc[sub:], p2)
	bar := k.pi2.Apply(nil, enc)
	up := k.mup.VecMul(nil, bar)
	down := k.mdown.VecMul(nil, bar)

	rp := rs[5]
	big := k.CiphertextDim()
	c1, c2, c3, c4 := rec[:big], rec[big:2*big], rec[2*big:3*big], rec[3*big:]
	for i := 0; i < big; i++ {
		c1[i] = rp * (up[i] + 1) / k.kv1[i]
		c2[i] = rp * (up[i] - 1) / k.kv2[i]
		c3[i] = rp * (down[i] + 1) / k.kv3[i]
		c4[i] = rp * (down[i] - 1) / k.kv4[i]
	}
}

// TestEncryptorStreamsAndScratch: an Encryptor's output is fixed by
// (key, stream, vector). Record i of any call, in a block of any length,
// has the bits refEncrypt gives it alone from stream i — so one reused
// Encryptor leaks nothing from block to block — and Key.Encrypt, the block
// of one, has the bits refEncrypt gives from the key's own stream. The ciphertexts answer comparisons like Encrypt's do. Dimensions
// 100 and 129 put M₃'s halves (108 and 138 rows) past one 32-row panel of
// the block product, 129 with a remainder that is not a multiple of four.
func TestEncryptorStreamsAndScratch(t *testing.T) {
	r := rng.NewSeeded(78)
	for _, dim := range []int{1, 7, 10, 100, 129} {
		seed := r.Uint64()
		k, err := KeyGen(rng.NewSeeded(seed), dim)
		if err != nil {
			t.Fatal(err)
		}
		twin, _ := KeyGen(rng.NewSeeded(seed), dim)
		streams := rng.NewStreams(r)
		enc := k.NewEncryptor()
		first := 0
		for _, n := range []int{1, 15, 16, 17} {
			vecs := make([][]float64, n)
			rs, recs := make([]*rng.Rand, n), make([][]float64, n)
			store := NewCiphertextStoreN(k.CiphertextDim(), n)
			for i := range vecs {
				vecs[i] = rng.Gaussian(r, nil, dim)
				rs[i], recs[i] = streams.At(first+i), store.Record(i)
			}
			enc.EncryptRecords(rs, vecs, recs)
			want := make([]float64, 4*k.CiphertextDim())
			for i, v := range vecs {
				refEncrypt(k, streams.At(first+i), v, want)
				for j, x := range recs[i] {
					if math.Float64bits(x) != math.Float64bits(want[j]) {
						t.Fatalf("dim=%d block of %d, record %d float %d: %v, per-record %v", dim, n, i, j, x, want[j])
					}
				}
			}
			first += n

			// The block of one draws from the key's stream, as refEncrypt
			// does from the twin key's.
			one := k.Encrypt(vecs[0])
			refEncrypt(twin, twin.rnd, vecs[0], want)
			for j, x := range one {
				if math.Float64bits(x) != math.Float64bits(want[j]) {
					t.Fatalf("dim=%d Encrypt float %d: %v, per-record %v", dim, j, x, want[j])
				}
			}
			if n != 17 {
				continue
			}
			q := rng.Gaussian(r, nil, dim)
			tq := k.TrapGen(q)
			for o := 0; o < n; o++ {
				for p := 0; p < n; p++ {
					do, dp := vec.SqDist(vecs[o], q), vec.SqDist(vecs[p], q)
					if z := store.DistanceComp(o, p, tq); o != p && (z < 0) != (do < dp) {
						t.Fatalf("dim=%d: comparison (%d,%d) = %v, distances %v vs %v", dim, o, p, z, do, dp)
					}
				}
			}
		}
	}
}

// TestPrepareQueryValidatesDimension holds the store's one trapdoor check:
// a Q one float short or one float long is refused, and a trapdoor the
// key generated for the store's records is accepted.
func TestPrepareQueryValidatesDimension(t *testing.T) {
	r := rng.NewSeeded(322)
	key, err := KeyGen(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	store := NewCiphertextStoreN(key.CiphertextDim(), 1)
	copy(store.Record(0), key.Encrypt(rng.Gaussian(r, nil, 8)))
	for _, n := range []int{key.CiphertextDim() - 1, key.CiphertextDim() + 1} {
		if err := store.CheckTrapdoor(&Trapdoor{Q: make([]float64, n)}); err == nil {
			t.Fatalf("expected dimension error for a trapdoor of %d floats", n)
		}
	}
	if err := store.CheckTrapdoor(&Trapdoor{Q: make([]float64, key.CiphertextDim())}); err != nil {
		t.Fatal(err)
	}
	if err := store.CheckTrapdoor(key.TrapGen(rng.Gaussian(r, nil, 8))); err != nil {
		t.Fatal(err)
	}
}
