package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"ppanns/internal/dataset"
)

// TestServedGolden pins what a served read answers and what it costs: for
// a fixed probe list of 32 tokens from one seeded User, the SHA-256 over
// every query's ids, SearchStats.Comparisons and SearchStats.Candidates,
// for each backend and filter mode, at four points of a WAL-backed
// server's life:
//
//   - fresh: the database as EncryptDatabase returned it;
//   - delta: after inserts into the delta tier and deletes in both tiers;
//   - compacted: after Compact folds them in;
//   - reopened: after a second round of inserts and deletes, which only
//     the log holds, then Close and OpenServer from the WAL; the reopened
//     server must also answer exactly as it did before it closed.
//
// The owners are seeded over dataset.DeepLike (d=96) and GISTLike (d=960,
// where a token and a comparison cross many kernel chunks). The digests
// were captured at commit 33eccd1, before any kernel body was removed, and
// hold under every kernel variant and core count: a change that moves one
// (the refine's comparison count, the merge's tie rule, a tier's candidate
// pool) re-captures it and says why in CHANGES.md.
func TestServedGolden(t *testing.T) {
	want := []struct {
		set, backend, filter              string
		fresh, delta, compacted, reopened string
	}{
		{"deep", "hnsw", "exact",
			"d1d14b9bfd2b030f93236517c5d9c7009fd0b2556562bc308d8de90f5edb6b6f",
			"9f78c4ed0477ba70a9f13476ac8931a301cf958735c916e7d8d6070cad38c8fe",
			"9f78c4ed0477ba70a9f13476ac8931a301cf958735c916e7d8d6070cad38c8fe",
			"0030201dda47b2f69b2a579e382fc37f4b8b5c566b05c95eb4aa7c2c9dd0db17"},
		{"deep", "hnsw", "pq",
			"e3d2d854633ee068465aa413ea350355526318ade756635fb005210b75e8a4d2",
			"d46a893b3d0905eb2becb206fe36620b35a89d873bdb400b20b91986e7461280",
			"d46a893b3d0905eb2becb206fe36620b35a89d873bdb400b20b91986e7461280",
			"3d823a2eb24cca40badef1ee1954059679fca434b078487dd9d6ba0126769cc2"},
		{"deep", "ivf", "exact",
			"d1d14b9bfd2b030f93236517c5d9c7009fd0b2556562bc308d8de90f5edb6b6f",
			"9f78c4ed0477ba70a9f13476ac8931a301cf958735c916e7d8d6070cad38c8fe",
			"9f78c4ed0477ba70a9f13476ac8931a301cf958735c916e7d8d6070cad38c8fe",
			"0030201dda47b2f69b2a579e382fc37f4b8b5c566b05c95eb4aa7c2c9dd0db17"},
		{"deep", "ivf", "pq",
			"e3d2d854633ee068465aa413ea350355526318ade756635fb005210b75e8a4d2",
			"d46a893b3d0905eb2becb206fe36620b35a89d873bdb400b20b91986e7461280",
			"d46a893b3d0905eb2becb206fe36620b35a89d873bdb400b20b91986e7461280",
			"3d823a2eb24cca40badef1ee1954059679fca434b078487dd9d6ba0126769cc2"},
		{"gist", "hnsw", "exact",
			"b40965e6ab5654b7fe174319829cd69dbe073b92359b903b65dfd8ada2348c3a",
			"0a87c8fe80ee69db05e206c6d019a28e8f08c13713006399ceca43d860a2c2a6",
			"0a87c8fe80ee69db05e206c6d019a28e8f08c13713006399ceca43d860a2c2a6",
			"63a1d2d26ee48f7573c2661603204bb279ffdce378f3082ab79b9bfdb760f37e"},
		{"gist", "hnsw", "pq",
			"e64cb73e863e30c5549b2c02aca3da47762f36cdc541c3581c3e64ff8b9dd422",
			"a910258be6b59f0dda3a6546e2fc6ce0cc68a2459e05a0cb336b7c3ba717bc2c",
			"a910258be6b59f0dda3a6546e2fc6ce0cc68a2459e05a0cb336b7c3ba717bc2c",
			"01e8ab04408ee9924b46ceb64ac3a097467f333a3c147e528195db6b3ad6f5a7"},
		{"gist", "ivf", "exact",
			"b40965e6ab5654b7fe174319829cd69dbe073b92359b903b65dfd8ada2348c3a",
			"0a87c8fe80ee69db05e206c6d019a28e8f08c13713006399ceca43d860a2c2a6",
			"0a87c8fe80ee69db05e206c6d019a28e8f08c13713006399ceca43d860a2c2a6",
			"63a1d2d26ee48f7573c2661603204bb279ffdce378f3082ab79b9bfdb760f37e"},
		{"gist", "ivf", "pq",
			"e64cb73e863e30c5549b2c02aca3da47762f36cdc541c3581c3e64ff8b9dd422",
			"a910258be6b59f0dda3a6546e2fc6ce0cc68a2459e05a0cb336b7c3ba717bc2c",
			"a910258be6b59f0dda3a6546e2fc6ce0cc68a2459e05a0cb336b7c3ba717bc2c",
			"01e8ab04408ee9924b46ceb64ac3a097467f333a3c147e528195db6b3ad6f5a7"},
	}
	got := map[string][4]string{}
	for _, set := range []struct {
		name string
		data *dataset.Data
		beta float64
	}{
		{"deep", dataset.DeepLike(2000, 32+60, 91), 0.5},
		{"gist", dataset.GISTLike(300, 32+60, 92), 4.1},
	} {
		probes, extra := set.data.Queries[:32], set.data.Queries[32:]
		for _, backend := range []string{"hnsw", "ivf"} {
			for filter, digests := range servedDigests(t, set.data.Train, probes, extra,
				Params{Dim: len(probes[0]), Beta: set.beta, Seed: 93, Index: backend, PQ: true, PQM: 8}) {
				got[set.name+"/"+backend+"/"+filter] = digests
			}
		}
	}
	for _, w := range want {
		key := w.set + "/" + w.backend + "/" + w.filter
		g := got[key]
		for i, d := range []string{w.fresh, w.delta, w.compacted, w.reopened} {
			if g[i] != d {
				t.Errorf("%s %s: digest %s, want %s", key, servedPoints[i], g[i], d)
			}
		}
	}
	if t.Failed() {
		for _, w := range want {
			g := got[w.set+"/"+w.backend+"/"+w.filter]
			t.Logf("{%q, %q, %q,\n\t%q,\n\t%q,\n\t%q,\n\t%q},", w.set, w.backend, w.filter, g[0], g[1], g[2], g[3])
		}
	}
}

var servedPoints = [4]string{"fresh", "delta", "compacted", "reopened"}

// servedDigests builds one seeded owner, a WAL-backed server over its
// database and one user, draws the probe tokens once, and returns per
// filter mode the probe digest at each of servedPoints. extra supplies the
// inserted vectors.
func servedDigests(t *testing.T, train, probes, extra [][]float64, params Params) map[string][4]string {
	t.Helper()
	owner, err := NewDataOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(train)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, err := NewServerWith(edb, ServerOptions{CompactAt: -1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	toks := make([]*QueryToken, len(probes))
	for i, q := range probes {
		if toks[i], err = user.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	modes := map[string]FilterDistMode{"exact": FilterExact, "pq": FilterPQ}
	out := map[string][4]string{}
	take := func(point int) {
		for name, mode := range modes {
			d := out[name]
			d[point] = probeDigest(t, srv, toks, mode)
			out[name] = d
		}
	}
	// mutate inserts the next 30 extra vectors, then deletes every 97th
	// base id from first on and every third of the ids just inserted.
	mutate := func(first int) {
		var ids []int
		for _, v := range extra[:30] {
			p, err := owner.EncryptVector(v)
			if err != nil {
				t.Fatal(err)
			}
			id, err := srv.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		extra = extra[30:]
		for id := first; id < len(train); id += 97 {
			if err := srv.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(ids); i += 3 {
			if err := srv.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	take(0)
	mutate(5)
	take(1)
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	take(2)
	mutate(50)
	before := map[string]string{}
	for name, mode := range modes {
		before[name] = probeDigest(t, srv, toks, mode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, _, err = OpenServer(dir, ServerOptions{CompactAt: -1}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	take(3)
	for name, d := range out {
		if d[3] != before[name] {
			t.Errorf("%s: reopened server answers %s, before Close %s", name, d[3], before[name])
		}
	}
	return out
}

// probeDigest runs every token through SearchInto (k=10, default options
// but the filter mode) and hashes each query's ids, comparisons and
// candidates, in probe order.
func probeDigest(t *testing.T, srv *Server, toks []*QueryToken, mode FilterDistMode) string {
	t.Helper()
	h := sha256.New()
	var ids []int
	var b []byte
	for _, tok := range toks {
		var st SearchStats
		var err error
		ids, st, err = srv.SearchInto(ids[:0], tok, 10, SearchOptions{FilterDist: mode})
		if err != nil {
			t.Fatal(err)
		}
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(ids)))
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(st.Comparisons))
		b = binary.LittleEndian.AppendUint64(b, uint64(st.Candidates))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTokenGolden pins the user side: the SHA-256 over the bits of 32
// probe tokens from one seeded User — each token's SAP ciphertext, then
// its trapdoor — on the served golden's sets and seed. The owner encrypts
// the set's vectors first, since the DCE key's input scale follows from
// them. The digests were captured at commit 70d2083 and hold under every
// kernel variant and core count, so a change to the token path (key
// layout, SAP encryption, trapdoor generation, the user's streams) that
// moves a bit shows here before it shows in a served answer.
func TestTokenGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		data *dataset.Data
		beta float64
		want string
	}{
		{"deep", dataset.DeepLike(2000, 32+60, 91), 0.5, "afd2b5285e4712acab6d36ebc61fab6880285b7cd9bbcb3124a35d9224ddd28e"},
		{"gist", dataset.GISTLike(300, 32+60, 92), 4.1, "123cdf75d82be8f896597c1d12ede0f7c8b6f576daa8cbd97651cccf509f5754"},
	} {
		owner, err := NewDataOwner(Params{Dim: c.data.Dim, Beta: c.beta, Seed: 93})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.EncryptDatabase(c.data.Train); err != nil {
			t.Fatal(err)
		}
		user, err := NewUser(owner.UserKey())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b []byte
		for _, q := range c.data.Queries[:32] {
			tok, err := user.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			b = b[:0]
			for _, f := range slices.Concat(tok.SAP, tok.Trapdoor.Q) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
			h.Write(b)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("%s: token digest %s, want %s", c.name, got, c.want)
		}
	}
}
