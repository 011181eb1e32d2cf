package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ppanns/internal/index"
)

// TestSeedFixesBytesOnAnyCoreCount is the determinism contract of set-up:
// one seed gives one database — keys, SAP and DCE ciphertexts, filter
// index, PQ tier — byte for byte in the PPANNSD5 file, whether
// EncryptDatabase ran on one core or four. Every stage is parallel (per-
// record streams, blocked key inversion, batched HNSW build, k-means
// assignment, PQ encoding), so each is a way this could fail.
func TestSeedFixesBytesOnAnyCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	data := clustered(91, 700, 12, 5)
	for _, c := range []struct {
		name   string
		params Params
	}{
		{"hnsw", Params{Dim: 12, Beta: 0.5, Seed: 91, Index: "hnsw"}},
		{"ivf", Params{Dim: 12, Beta: 0.5, Seed: 92, Index: "ivf", PQ: true, PQM: 4}},
		{"hnsw+pq", Params{Dim: 12, Beta: 0.5, Seed: 95, Index: "hnsw", PQ: true, PQM: 3}},
	} {
		params := c.params
		t.Run(c.name, func(t *testing.T) {
			var wantDB, wantKey []byte
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				owner, err := NewDataOwner(params)
				if err != nil {
					t.Fatal(err)
				}
				edb, err := owner.EncryptDatabase(data)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewServer(edb)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "db.ppanns")
				if err := srv.SaveTo(path); err != nil {
					t.Fatal(err)
				}
				db, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(db, []byte("PPANNSD5")) {
					t.Fatalf("SaveTo wrote %q, want a PPANNSD5 file", db[:8])
				}
				var key bytes.Buffer
				if err := SaveUserKey(&key, owner.UserKey()); err != nil {
					t.Fatal(err)
				}
				if wantDB == nil {
					wantDB, wantKey = db, key.Bytes()
					continue
				}
				if !bytes.Equal(key.Bytes(), wantKey) {
					t.Errorf("user key differs between GOMAXPROCS 1 and %d", procs)
				}
				if !bytes.Equal(db, wantDB) {
					t.Errorf("database file differs between GOMAXPROCS 1 and %d (%d vs %d bytes)", procs, len(wantDB), len(db))
				}
			}
		})
	}
}

// TestEncryptDatabaseDrawsFreshStreams: a second EncryptDatabase on the
// same owner must not reuse the first call's per-record randomness.
func TestEncryptDatabaseDrawsFreshStreams(t *testing.T) {
	data := clustered(96, 40, 8, 2)
	owner, err := NewDataOwner(Params{Dim: 8, Beta: 0.5, Seed: 96, Index: "ivf"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.DCE.Record(0)[0] == b.DCE.Record(0)[0] {
		t.Fatal("two EncryptDatabase calls produced the same DCE ciphertext")
	}
	va, _ := a.Index.Vector(0)
	vb, _ := b.Index.Vector(0)
	if va[0] == vb[0] {
		t.Fatal("two EncryptDatabase calls produced the same SAP ciphertext")
	}
}

// TestBuildStats: EncryptDatabase times its stages in place — none can be
// negative and they cannot exceed the call — and reports the k-means work of
// the builds that cluster (the IVF quantizer, the PQ subspaces), which a
// graph build without a PQ tier has none of.
func TestBuildStats(t *testing.T) {
	data := clustered(97, 600, 12, 5)
	for _, c := range []struct {
		params Params
		kmeans bool
	}{
		{Params{Dim: 12, Beta: 0.5, Seed: 97, Index: "ivf", PQ: true, PQM: 4}, true},
		{Params{Dim: 12, Beta: 0.5, Seed: 98, Index: "hnsw"}, false},
	} {
		owner, err := NewDataOwner(c.params)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := owner.EncryptDatabase(data); err != nil {
			t.Fatal(err)
		}
		call := time.Since(start)
		st := owner.BuildStats()
		for name, d := range map[string]time.Duration{"KeyGen": st.KeyGen, "Encrypt": st.Encrypt, "Index": st.Index} {
			if d <= 0 {
				t.Errorf("%s: stage %s took %v", c.params.Index, name, d)
			}
		}
		if (st.PQ > 0) != c.params.PQ {
			t.Errorf("%s: PQ stage took %v with PQ=%v", c.params.Index, st.PQ, c.params.PQ)
		}
		if sum := st.KeyGen + st.Encrypt + st.Index + st.PQ; sum > call {
			t.Errorf("%s: stages sum to %v, the call took %v", c.params.Index, sum, call)
		}
		if (st.KMeansIters > 0) != c.kmeans || (st.DistEvals > 0) != c.kmeans {
			t.Errorf("%s: %d k-means iterations, %d distance evaluations", c.params.Index, st.KMeansIters, st.DistEvals)
		}
	}
}

// TestDatabaseGolden pins seed → bytes against committed values: the
// SHA-256 of the PPANNSD5 file and of the user key for one small seeded
// build per backend (hnsw and ivf also with the PQ tier). The test above
// compares two builds of one commit with each other, so a format drift
// between commits is invisible to it. Database digests recorded at commit
// 84fd674, before the compatibility readers were removed. The user-key
// digests were re-captured once, when the DCE key file (generation 2)
// started to carry the folded query matrix in place of M₁⁻¹, M₂⁻¹ and
// M₃⁻¹, and again when the key files left gob for their own magic-led
// layouts (PPANNSU1 around SAPKEY01 and DCEKEY03), holding the same key
// material; the database digests moved with neither.
//
// At d=8, M₃'s 16-row halves fit inside one panel of the block product
// encryption runs on. The d=100 case (108 rows, past the panel boundary;
// 300 records, not a multiple of the 16-record encryption block) was
// captured at the commit before encryption became blockwise, so the block
// path is held to the per-record bytes. The d=300 case (B = 616: ten
// 64-column LU panels and ten 64-row solve blocks, the last of each cut
// short; M₃'s 308-row halves in nine full 32-row VecMulBlock panels and a
// short one) was captured at commit da5e522, before the four-destination
// panel kernel went under VecMulBlock, Factorize and the LU solves, so
// that kernel is held to the bytes of the one-destination loops.
func TestDatabaseGolden(t *testing.T) {
	for _, c := range []struct {
		name    string
		params  Params
		db, key string
	}{
		{"hnsw", Params{Dim: 8, Beta: 0.5, Seed: 61, Index: "hnsw"},
			"5d578e82f49ad9e7e3e514263825084c6ec42f6d8284466efde4f460fd059a5d",
			"ebd35e52fdfa74db6592741df1d5b392db10613e475b2c84bf91d19cedc633f0"},
		{"ivf", Params{Dim: 8, Beta: 0.5, Seed: 63, Index: "ivf"},
			"0c594bbf0b8504b111681a5c162f483b274e646ca674c86cb3d3103e6a9d858c",
			"237b34ae1d1d4aa3ecda867b00d52c94605cd3220486b96724c79fb602f76b0e"},
		{"hnsw+pq", Params{Dim: 8, Beta: 0.5, Seed: 65, Index: "hnsw", PQ: true, PQM: 4},
			"1ffd87a5fb9c43c8d7001d3f1074a3676a9730259a7822f7be9e40b5efce73ca",
			"659f3b009ba55b33aa0504889ea3256a48b05ef181aae0f8082425c264ccf884"},
		{"ivf+pq", Params{Dim: 8, Beta: 0.5, Seed: 66, Index: "ivf", PQ: true, PQM: 4},
			"9d7c0129b6728e0e01e1771b38cdfd7358f0c339436ab62da12577e75bf4f4fd",
			"11b500f9b3965bcf2aba27d5e9e297c170f868c07fb87c18e4e6c4c58f1d16c3"},
		{"hnsw d=100", Params{Dim: 100, Beta: 0.5, Seed: 67, Index: "hnsw"},
			"ad23e34b12769e7892f04484600436e502a8f639648fdef76e5cedea795bd69e",
			"32c3d44eb3db23fd15623916499e94c24e253a28f70f823993a35b5b84ea9e49"},
		{"hnsw d=300", Params{Dim: 300, Beta: 0.5, Seed: 68, Index: "hnsw"},
			"5db7ba74cb4086d0f6db19beff742e292a7309f40f7015a1bf6b2ee870eda960",
			"f7c91092a0943d4afb826d8260c46fd94be9f2ea7b2135537a484db354c95d6d"},
	} {
		owner, err := NewDataOwner(c.params)
		if err != nil {
			t.Fatal(err)
		}
		edb, err := owner.EncryptDatabase(clustered(61, 300, c.params.Dim, 4))
		if err != nil {
			t.Fatal(err)
		}
		var db, key bytes.Buffer
		if err := edb.Save(&db); err != nil {
			t.Fatal(err)
		}
		if err := SaveUserKey(&key, owner.UserKey()); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(db.Bytes())); got != c.db {
			t.Errorf("%s: database digest %s, want %s", c.name, got, c.db)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(key.Bytes())); got != c.key {
			t.Errorf("%s: user key digest %s, want %s", c.name, got, c.key)
		}
	}
}

// TestRelayoutGolden pins the bytes of the three re-layouts — the serving
// tier's fold, Split and offline Compacted — against digests captured at
// commit dccedca, before the three were rebuilt around one gather. Each
// case runs a seeded delete+insert script on a server that never compacts
// by itself, flushes it twice (fold1 after a small script; fold2 after
// inserting more than the base's n records, so ivf+pq's 2× retrain rule
// fires there and not at fold1), then splits the fold2 database into two
// stripes with Seed 5 and compacts it offline. Every digest but the last is
// the SHA-256 of the PPANNSD5 Save bytes; the last is the SHA-256 of
// AppendInsert over every insert payload of the script, in order — the
// bytes the wire and the WAL carry for an insert — captured at commit
// 31ac28f, while the payload's ciphertext was still four slices.
func TestRelayoutGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
		want   []string // fold1, fold2, stripe 0, stripe 1, compacted, inserts
	}{
		{"hnsw", Params{Dim: 8, Beta: 0.5, Seed: 71, Index: "hnsw"}, []string{
			"013f30fce56d06e72622c53b773065dd38fd09d6390ec6faef02baec4b517460",
			"0b2f5717969128022bc6192ccb01c8e598517bd58058fb0a1d1ebdb55252f89d",
			"bdd2acef7379bdd7372baa9dfac2d15cc26c10595dbc8053dcd7c92c5be4b155",
			"fa9328b8f6fc2f38e3689ca8ccae06f140070160357e11a0a1eaf92a6841cedc",
			"fe2b0fe8866398c66a97bcb92b9905b15e188fab3d55ff680793dfb9e1b2f5d8",
			"e300125312fdd2ef2abb16a58daa5de87441d90a176a942a726669bc2bcdfde2"}},
		{"ivf", Params{Dim: 8, Beta: 0.5, Seed: 72, Index: "ivf"}, []string{
			"c8be4500cc4f5c73a06021b95b918928449d2fe95b23f687bd1b751a1bac9c06",
			"296b2ad5937eae760dd595905878049ac2b229cc4a033fbcd65cd443a25f9220",
			"9bea7444f98169b0ca8dccad27215848e41b418cf2f321ca9f6215a51ae36c8e",
			"d840bd49ec8c2211166f7a05086a71b39c0e479b8766e41ff27c6556cdb37d72",
			"3345e6e3eda82216f36cbcd95b3d5e74ad233b98a5a1fad86ca95d13fc0f4d56",
			"73b91d08cf005e36664f553ef0011885cdd877b6f755299a4da9c09f537e01a0"}},
		{"ivf+pq", Params{Dim: 8, Beta: 0.5, Seed: 73, Index: "ivf", PQ: true, PQM: 4}, []string{
			"af7fafea50c7150d38efa6200a621395d197d3de6eda691b08e48062ca91dc12",
			"22a688de7b032ea8305907b2321bf37f8c88dfbed5b30ffac4b703490e87d22f",
			"ee555c7b74a323d292561b8f83087810a48cc03b490939c2988b82309b9dd614",
			"f9482ea47a7b544c0958a6361a6099d0228933df6004c0d784a96db198cc85ee",
			"a06c6813b4f43839b8de1fad89b471831dcc4c1abb61a3ac73b6d1232f36c95c",
			"515177e184b05fdb3786641906cda1d14d388a9def7aebdfa00518e40d195bd0"}},
	} {
		owner, err := NewDataOwner(c.params)
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		edb, err := owner.EncryptDatabase(clustered(71, n, c.params.Dim, 4))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWith(edb, ServerOptions{CompactAt: -1})
		if err != nil {
			t.Fatal(err)
		}
		extra := clustered(72, n+40, c.params.Dim, 4)
		inserts := sha256.New()
		insert := func(vs [][]float64) {
			for _, v := range vs {
				p, err := owner.EncryptVector(v)
				if err != nil {
					t.Fatal(err)
				}
				inserts.Write(AppendInsert(nil, p))
				if _, err := srv.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		var got []string
		digest := func(e *EncryptedDatabase) {
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
		}
		flush := func() *EncryptedDatabase {
			e, err := srv.Flush()
			if err != nil {
				t.Fatal(err)
			}
			digest(e)
			return e
		}

		// fold1: main-tier deletes, then a delta tier with deletes in it.
		for k := 0; k < 30; k++ {
			if err := srv.Delete(5*k + 1); err != nil {
				t.Fatal(err)
			}
		}
		insert(extra[:40])
		for _, id := range []int{n + 3, n + 17, n + 31} {
			if err := srv.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if e := flush(); e.PQ != nil && e.PQ.TrainedOn != n {
			t.Fatalf("%s: fold1 retrained PQ (TrainedOn %d)", c.name, e.PQ.TrainedOn)
		}
		// fold2: 300 more positions (640 ≥ 2·300) and deletes on both tiers.
		insert(extra[40:])
		for k := 0; k < 30; k++ {
			if err := srv.Delete(n + 11*k + 2); err != nil {
				t.Fatal(err)
			}
		}
		folded := flush()
		if folded.PQ != nil && folded.PQ.TrainedOn != 2*n+40 {
			t.Fatalf("%s: fold2 did not retrain PQ (TrainedOn %d)", c.name, folded.PQ.TrainedOn)
		}

		stripes, err := folded.Split(2, index.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stripes {
			digest(s)
		}
		compacted, err := folded.Compacted()
		if err != nil {
			t.Fatal(err)
		}
		digest(compacted)
		got = append(got, fmt.Sprintf("%x", inserts.Sum(nil)))

		for i, name := range []string{"fold1", "fold2", "stripe 0", "stripe 1", "compacted", "inserts"} {
			if got[i] != c.want[i] {
				t.Errorf("%s %s: digest %s, want %s", c.name, name, got[i], c.want[i])
			}
		}
	}
}
