package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"ppanns/internal/index"
)

// contentDigest is the SHA-256 of what a database holds, independent of how
// a file lays it out: Dim, Backend and the DCE component length, then for
// every id of the id space its liveness, its DCE record, its row of the
// index and its PQ code — read by id through the id → slot map, so a
// deleted id hashes as the zero record, absent row and zero code it was
// when a dead slot held it — the PQ tier's centroids, TrainedOn and config,
// and the ids and filter distances Index.SearchInto returns for the SAP
// rows of the first eight live ids. The golden tests pin it beside the Save
// bytes, so a change of file layout shows up as moved byte digests over an
// unmoved content digest.
func contentDigest(e *EncryptedDatabase) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	floats := func(fs []float64) {
		put(uint64(len(fs)))
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	put(uint64(e.Dim), uint64(len(e.Backend)))
	h.Write([]byte(e.Backend))
	put(uint64(e.DCE.CtDim()), uint64(e.Len()))
	var probes [][]float64
	zero := make([]float64, 4*e.DCE.CtDim())
	for id := 0; id < e.Len(); id++ {
		slot, live := e.slot(id)
		rec, v := zero, []float64(nil)
		if live {
			rec, v = e.DCE.Record(slot), e.SAP.At(slot)
			iv, ok := e.Index.Vector(slot)
			if !ok || !slices.Equal(iv, v) {
				panic(fmt.Sprintf("id %d: slot %d's row of the index is not its SAP row", id, slot))
			}
		}
		put(b2u(live), b2u(live))
		floats(rec)
		floats(v)
		if live && len(probes) < 8 {
			probes = append(probes, v)
		}
	}
	if e.PQ != nil {
		// The recipe's constant training words, a sample of 8192 and 8
		// iterations, which PPANNSD6 files carried.
		c := e.PQ.Cfg
		put(uint64(e.PQ.TrainedOn), uint64(c.M), uint64(e.PQ.Book.K()), 8192, 8, c.Seed)
		for _, block := range e.PQ.Book.Centroids() {
			floats(block)
		}
		zero := make([]byte, e.PQ.Codes.Width())
		for id := 0; id < e.Len(); id++ {
			if slot, ok := e.slot(id); ok {
				h.Write(e.PQ.Codes.Row(slot))
			} else {
				h.Write(zero)
			}
		}
	}
	for _, q := range probes {
		for _, it := range e.Index.SearchInto(nil, q, 10, 50) {
			put(uint64(e.ids[it.ID]), math.Float64bits(it.Dist))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestSeedFixesBytesOnAnyCoreCount is the determinism contract of set-up:
// one seed gives one database — keys, SAP and DCE ciphertexts, filter
// index, PQ tier — byte for byte in the database file, whether
// EncryptDatabase ran on one core or four. Every stage is parallel (per-
// record streams, blocked key inversion, batched HNSW build, k-means
// assignment, PQ encoding), so each is a way this could fail. So are the
// three stripes of a Split, built side by side: on one worker, and on more
// workers than stripes.
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
			var wantStripes [][]byte
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
				parts, err := edb.Split(3, index.Options{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				stripes := make([][]byte, len(parts))
				for s, part := range parts {
					var b bytes.Buffer
					if err := part.Save(&b); err != nil {
						t.Fatal(err)
					}
					stripes[s] = b.Bytes()
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
				if !bytes.HasPrefix(db, []byte(edbMagic)) {
					t.Fatalf("SaveTo wrote %q, want a %s file", db[:8], edbMagic)
				}
				var key bytes.Buffer
				if err := SaveUserKey(&key, owner.UserKey()); err != nil {
					t.Fatal(err)
				}
				if wantDB == nil {
					wantDB, wantKey, wantStripes = db, key.Bytes(), stripes
					continue
				}
				for s := range stripes {
					if !bytes.Equal(stripes[s], wantStripes[s]) {
						t.Errorf("stripe %d of Split(3) differs between GOMAXPROCS 1 and %d", s, procs)
					}
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
// negative, and none can exceed the call: key generation and encryption run
// one after the other on one branch, so their sum fits inside the call,
// while the index and the PQ tier overlap that branch and each other, so
// each fits on its own — and reports the k-means work of the builds that
// cluster (the IVF quantizer, the PQ subspaces), which a graph build
// without a PQ tier has none of.
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
		for name, d := range map[string]time.Duration{"KeyGen+Encrypt": st.KeyGen + st.Encrypt, "Index": st.Index, "PQ": st.PQ} {
			if d > call {
				t.Errorf("%s: %s took %v, the call took %v", c.params.Index, name, d, call)
			}
		}
		if (st.KMeansIters > 0) != c.kmeans || (st.DistEvals > 0) != c.kmeans {
			t.Errorf("%s: %d k-means iterations, %d distance evaluations", c.params.Index, st.KMeansIters, st.DistEvals)
		}
	}
}

// TestDatabaseGolden pins seed → bytes against committed values: the
// SHA-256 of the database file and of the user key for one small seeded
// build per backend (hnsw and ivf also with the PQ tier), and the
// contentDigest of the database as built and as loaded back. The test
// above compares two builds of one commit with each other, so a format
// drift between commits is invisible to it. The content digests were
// recorded at commit 183fd19, over PPANNSD5, and the database digests
// re-captured when the file became PPANNSD6 (one frame stream under one
// CRC32) and again when it became PPANNSD7 (each column written once, the
// index sections topology only, the constant header and PQ words
// dropped), and again when it became PPANNSD8 (the ids column in place of
// the presence bytes, no dead row): the same content in the new layout.
// The PPANNSD7 digests are those of commit 70d2083's PPANNSD6 files with
// their sections moved into the new order and the dropped words cut out;
// the PPANNSD8 digests are those of commit bc9cc68's PPANNSD7 files with
// the record count added to the header, the presence bytes replaced by the
// ids of the live records, every dead row cut from the ciphertext, SAP and
// PQ code sections, and the index sections' node ids renumbered to slots,
// byte for byte. The user-key digests were
// re-captured once, when the DCE key file (generation 2) started to carry
// the folded query matrix in place of M₁⁻¹, M₂⁻¹ and M₃⁻¹, and again when
// the key files left gob for their own magic-led layouts (PPANNSU1 around
// SAPKEY01 and DCEKEY03), holding the same key material; the database
// digests moved with neither.
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
//
// The d=100 zeros case clips the clustered data at zero, so about half of
// its coordinates are exact zeros and the split halves M₁ and M₂ take
// (54 rows: a full 32-row panel and a short one) hold zero coefficients in
// practically every four-record group. Its digests were captured at commit
// 8721a8c, while VecMulBlock still sent every such group to the
// one-destination loops that skip zero terms, and while EncryptDatabase
// still ran its stages one after another; it holds the panel kernel's
// zero terms and the concurrent set-up to those bytes.
func TestDatabaseGolden(t *testing.T) {
	for _, c := range []struct {
		name             string
		params           Params
		db, key, content string
		zeros            bool // clip the data at zero
	}{
		{"hnsw", Params{Dim: 8, Beta: 0.5, Seed: 61, Index: "hnsw"},
			"64dd7348c2fb3da4ba46c375b99a6a5514597b84e68fb1f97305ae58b02c06cf",
			"ebd35e52fdfa74db6592741df1d5b392db10613e475b2c84bf91d19cedc633f0",
			"cdd2182c58eba5cf3d1e630e95e4b9cc726d4724da647f0efc802da3c5fc3a8c", false},
		{"ivf", Params{Dim: 8, Beta: 0.5, Seed: 63, Index: "ivf"},
			"55403ecffc3ee19773c340ee5b595ed70e23028e413506a44386f2da2c5f6731",
			"237b34ae1d1d4aa3ecda867b00d52c94605cd3220486b96724c79fb602f76b0e",
			"6211644de130a0a77bbad64a4e4a4820a590e3318669cb934b09e93e63243e38", false},
		{"hnsw+pq", Params{Dim: 8, Beta: 0.5, Seed: 65, Index: "hnsw", PQ: true, PQM: 4},
			"452ae01d3fd7847e69013fedea07a2104c07fa5748d545356ced3edee4198c50",
			"659f3b009ba55b33aa0504889ea3256a48b05ef181aae0f8082425c264ccf884",
			"f4bac5aeaa1f3faf88058a98232e464e03c0a21c0db36c59edecfd97c44792d3", false},
		{"ivf+pq", Params{Dim: 8, Beta: 0.5, Seed: 66, Index: "ivf", PQ: true, PQM: 4},
			"2f34d7a31405aae32a3b438d94e654f968b5603c368a7d85bb4cd95c66209e4f",
			"11b500f9b3965bcf2aba27d5e9e297c170f868c07fb87c18e4e6c4c58f1d16c3",
			"252d6d7c018062f1a82224f8223adf8d08e0211c7c089212cec753e4d5a01cfc", false},
		{"hnsw d=100", Params{Dim: 100, Beta: 0.5, Seed: 67, Index: "hnsw"},
			"89211fcbad2291ac47b9b004d1c82e9261f9247fa082d3f6967582c4763820af",
			"32c3d44eb3db23fd15623916499e94c24e253a28f70f823993a35b5b84ea9e49",
			"9512e7050efb7ed3d82acb2b3f5b07a5319f67b64ef24aee416c12c014d02f33", false},
		{"hnsw d=300", Params{Dim: 300, Beta: 0.5, Seed: 68, Index: "hnsw"},
			"7f75aff0420e3c2f0cfe624b3195471e1594ebf9e3810babce12ea70da067dd8",
			"f7c91092a0943d4afb826d8260c46fd94be9f2ea7b2135537a484db354c95d6d",
			"fa01866a072c276bff80e19d2a81d840ace4b072d54b6dd65ec07b7172d18c79", false},
		{"ivf+pq d=100 zeros", Params{Dim: 100, Beta: 0.5, Seed: 69, Index: "ivf", PQ: true, PQM: 4},
			"ed61ff8ddaae05b4f24a57be84088ca9ca47b9d8610e99ca5a42d6681839b81a",
			"014e8b2d533ac9bba29015e811c93d04920f44a0a03e7fb849b1afcd3900c100",
			"fd60d343e8ddfa41343a7a05663e4f7827c06c41625df0ac9a91121292d0c46b", true},
	} {
		owner, err := NewDataOwner(c.params)
		if err != nil {
			t.Fatal(err)
		}
		data := clustered(61, 300, c.params.Dim, 4)
		if c.zeros {
			if got := clipAtZero(data); got < 0.1 {
				t.Fatalf("%s: %.3f of the coordinates are zero, want at least 0.1", c.name, got)
			}
		}
		edb, err := owner.EncryptDatabase(data)
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
		loaded, err := LoadEncryptedDatabase(bytes.NewReader(db.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*EncryptedDatabase{edb, loaded} {
			if got := contentDigest(e); got != c.content {
				t.Errorf("%s: content digest %s, want %s", c.name, got, c.content)
			}
		}
	}
}

// clipAtZero replaces every negative coordinate of data with zero, in
// place, and returns the fraction of coordinates that are then zero.
func clipAtZero(data [][]float64) float64 {
	zeros, all := 0, 0
	for _, v := range data {
		for j, x := range v {
			if x <= 0 {
				v[j] = 0
				zeros++
			}
		}
		all += len(v)
	}
	return float64(zeros) / float64(all)
}

// TestRelayoutGolden pins the bytes of the three re-layouts — the serving
// tier's fold, Split and offline Compacted — against digests captured at
// commit dccedca, before the three were rebuilt around one gather. Each
// case runs a seeded delete+insert script on a server that never compacts
// by itself, flushes it twice (fold1 after a small script; fold2 after
// inserting more than the base's n records, so ivf+pq's 2× retrain rule
// fires there and not at fold1), then splits the fold2 database into two
// stripes with Seed 5 and compacts it offline. Every digest but the last is
// the SHA-256 of the Save bytes, re-captured when the file became PPANNSD6,
// when it became PPANNSD7 and when it became PPANNSD8, each time as
// TestDatabaseGolden's were (PPANNSD8: commit bc9cc68's files with the
// presence bytes replaced by the ids, the dead rows cut and the index's
// node ids renumbered to slots);
// the last is the SHA-256 of AppendInsert over every insert payload of the
// script, in order — the bytes the wire and the WAL carry for an insert —
// captured at commit 31ac28f, while the payload's ciphertext was still
// four slices. Beside them sits the contentDigest of each of the five
// databases, recorded at commit 183fd19 over PPANNSD5, which must also
// survive a Save and a load: it reads by id, so a database that holds no
// row for a deleted id hashes as the one that held a zeroed dead slot.
func TestRelayoutGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		params Params
		want   []string // fold1, fold2, stripe 0, stripe 1, compacted, inserts
		// content digests of fold1, fold2, stripe 0, stripe 1, compacted
		content []string
	}{
		{"hnsw", Params{Dim: 8, Beta: 0.5, Seed: 71, Index: "hnsw"}, []string{
			"e66740734a257aad6ebc7fa3dd6c2bdd6b7ca69ffddbf1f4afc3e2f7c07696a0",
			"412e8b226f0c20769559941fda62d1e0404bad5d4ab0d32fb1b924e02c8f351a",
			"8d87c8b72e06f4b2080d3f2171103b066fd2c0daa58ede7e19b5643ba18899b4",
			"5029f417b624a9f681aa1453c2b1b1110cc9272aa62bcdcc5a66a13ef966fcf5",
			"51ea04d846bc438750dcae18223ed8ccd3c1e9bc904103fea940191560bbf75c",
			"e300125312fdd2ef2abb16a58daa5de87441d90a176a942a726669bc2bcdfde2"},
			[]string{
				"b3052fa6bababf29f881ada0ce975643dd97b64a5d95fb9eafb05ca36b413f90",
				"4308ff4df5ce6f7bdab82e09df9ec146815a17a62e01a7b5a792c6ceb5dfe5ab",
				"cbe75cc9e13e5be7f1d8cc678a8d5f00d7a06eefc3cb5780e0ed1db8626eadab",
				"63a83d339bc147d326f4c84661bb80333e4d58e3fedcbed9e0524e35016afd10",
				"b31787e9a862cf80366eda4bd4e48a735f952e127f3fb5f0489a35cbcfecd7cc",
			}},
		{"ivf", Params{Dim: 8, Beta: 0.5, Seed: 72, Index: "ivf"}, []string{
			"a4fb43dba2123101823bc91d960c9a99af4399ab61aae0e1d749f713d6c0f6a6",
			"461f10f1676bc791dcf9a78f0864ddcec29f0bee609c8c3165496292eaa979df",
			"f99989e839eeeb3a872acec03a07db7cbd125ac0a15d81a04dc41ca072dc8118",
			"5f6ed26cf7503752a8ac0a8eea1b644e3626fbd56658bf2c3e9335425fd31c31",
			"258fd9854d047d6c094f128279c8b56ef3be90a165652595745fb29f857fba59",
			"73b91d08cf005e36664f553ef0011885cdd877b6f755299a4da9c09f537e01a0"},
			[]string{
				"1ebe1ae62f38262c981e8c4c8238860c4af5e29b26224a903dc107059ec3c639",
				"90e193e73b8b56ff6e54bea5363a13eb8dbfae88174b31e4d88b704286e00e58",
				"86fd870208c03e3a9869d8ae33ce4abfea3d70c846d7fcea4831b07c3c80c009",
				"f633a4bd88c3353f54554182d3eccc18032562d01b64f0dee1617c2f671d6b30",
				"486d818ea35fb258a1bf01b346f02bec1fc00857564c907eff08e561091ccc6d",
			}},
		{"ivf+pq", Params{Dim: 8, Beta: 0.5, Seed: 73, Index: "ivf", PQ: true, PQM: 4}, []string{
			"5caac7345571c6bf27316d976c3a3d8de05d6d66b9acdebaafc3a912dd25016f",
			"89594ccc99b29698273583b0956378d12c954b43ca1699edb9195cd653c40505",
			"049e6dd0d601d30fa11ff5b8ca2bb2cf3a01345f0d5daaaedcc161c07356387f",
			"ccdc97fb18ce8e6fab9d89be75cbf7a57742b57bb0379de06d133d5ac5024d67",
			"244686a79a8b7506a66dff0592deef740fd96958e1bd88bf67a3a47b3416cf7e",
			"515177e184b05fdb3786641906cda1d14d388a9def7aebdfa00518e40d195bd0"},
			[]string{
				"d9cbebbe70b2db5cf0b1dafcb43f76db35977eabd0f6f9ec594e578dd1747fde",
				"d5bfa3dbd9bff0b6a9fad111a0438a0e96996cc2fa865a9ca76787b27606583a",
				"a164873fe8b96e035d85368df5f93cb79b0961086e5b28a6f0d37cd665187321",
				"39ad3e5c19932793761da79a58fcc3eea0a90da6a796c5265bd9ca7799cbeb82",
				"bc8805d414dd059e62ee6f2d12ba866235335db5e59d507c57f0691188c7fc8e",
			}},
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
		var got, content []string
		digest := func(e *EncryptedDatabase) {
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
			loaded, err := LoadEncryptedDatabase(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := contentDigest(e), contentDigest(loaded); a != b {
				t.Errorf("%s: content digest %s after a round trip, %s before", c.name, b, a)
			}
			content = append(content, contentDigest(e))
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
			if i < len(content) && content[i] != c.content[i] {
				t.Errorf("%s %s: content digest %s, want %s", c.name, name, content[i], c.content[i])
			}
		}
	}
}
