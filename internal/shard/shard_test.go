package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dce"
	"ppanns/internal/index"
	"ppanns/internal/rng"
	"ppanns/internal/transport"
	"ppanns/internal/vec"
)

// world is an unsharded deployment plus the raw vectors behind it.
type world struct {
	train   [][]float64
	queries [][]float64
	owner   *core.DataOwner
	user    *core.User
	server  *core.Server
	edb     *core.EncryptedDatabase
}

func testData(seed uint64, n, dim, queries int) (train, qs [][]float64) {
	r := rng.NewSeeded(seed)
	const clusters = 8
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, dim, 6)
	}
	train = make([][]float64, n)
	for i := range train {
		train[i] = vec.Add(nil, centers[r.IntN(clusters)], rng.GaussianVec(r, dim, 1))
	}
	qs = make([][]float64, queries)
	for i := range qs {
		qs[i] = vec.Add(nil, train[r.IntN(n)], rng.GaussianVec(r, dim, 0.3))
	}
	return train, qs
}

// flushed is s.Flush() for a test that expects the flush to succeed.
func flushed(t testing.TB, s *core.Server) *core.EncryptedDatabase {
	t.Helper()
	edb, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return edb
}

func newWorld(t *testing.T, n, dim int) *world {
	t.Helper()
	train, qs := testData(11, n, dim, 20)
	owner, err := core.NewDataOwner(core.Params{Dim: dim, Beta: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	return &world{train: train, queries: qs, owner: owner, user: user, server: srv, edb: edb}
}

// localCoordinator splits the world's database and wires an in-process
// coordinator over the parts.
func localCoordinator(t *testing.T, w *world, shards int) (*Coordinator, []*core.Server) {
	t.Helper()
	parts, err := flushed(t, w.server).Split(shards, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([]*core.Server, shards)
	shs := make([]Shard, shards)
	for s, p := range parts {
		srv, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		srvs[s] = srv
		shs[s] = Local{Srv: srv}
	}
	coord, err := NewCoordinatorWith(shs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return coord, srvs
}

// fullRecall makes both the unsharded filter and every shard filter
// exhaustive, so the sharded and unsharded candidate sets each contain the
// true top-k and the conformance comparison is deterministic.
func fullRecall(n int) core.SearchOptions {
	return core.SearchOptions{KPrime: n, EfSearch: n}
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScatterGatherConformance is the acceptance test of the sharded tier:
// a scatter-gather search over ≥2 shards returns exactly the same ids in
// exactly the same order as the unsharded server, including after
// deletions.
func TestScatterGatherConformance(t *testing.T) {
	const n, dim, k = 500, 16, 10
	w := newWorld(t, n, dim)
	// Tombstone a few ids first so the stripe carries holes through Split.
	for _, id := range []int{3, 10, 11} {
		if err := w.server.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{2, 3} {
		coord, _ := localCoordinator(t, w, shards)
		if coord.Len() != n {
			t.Fatalf("%d shards: coordinator Len = %d, want %d", shards, coord.Len(), n)
		}
		opt := fullRecall(n)
		for qi, q := range w.queries {
			tok, err := w.user.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.server.Search(tok, k, opt)
			if err != nil {
				t.Fatalf("%d shards, query %d (unsharded): %v", shards, qi, err)
			}
			got, err := coord.Search(tok, k, opt)
			if err != nil {
				t.Fatalf("%d shards, query %d: %v", shards, qi, err)
			}
			if !sameIDs(got, want) {
				t.Fatalf("%d shards, query %d:\nsharded   %v\nunsharded %v", shards, qi, got, want)
			}
		}
	}
}

func TestInsertDeleteRouting(t *testing.T) {
	const n, dim, k = 300, 16, 5
	w := newWorld(t, n, dim)
	coord, srvs := localCoordinator(t, w, 3)

	// Inserts must land on the striped owner and hand out sequential
	// global ids, mirroring the unsharded id sequence.
	for i := 0; i < 7; i++ {
		payload, err := w.owner.EncryptVector(w.train[i])
		if err != nil {
			t.Fatal(err)
		}
		gid, err := coord.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		if gid != n+i {
			t.Fatalf("insert %d: global id %d, want %d", i, gid, n+i)
		}
		s, local := Mapping{Shards: 3}.Locate(gid)
		if srvs[s].Deleted(local) {
			t.Fatalf("insert %d missing on owning shard %d", i, s)
		}
	}
	if coord.Len() != n+7 {
		t.Fatalf("Len = %d, want %d", coord.Len(), n+7)
	}

	// An inserted duplicate of train[0] must now be findable globally.
	tok, err := w.user.Query(w.train[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n + 7)
	ids, err := coord.Search(tok, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	for _, id := range ids {
		if id == n { // the duplicate of train[0]
			foundDup = true
		}
	}
	if !foundDup {
		t.Fatalf("inserted duplicate (global id %d) not in %v", n, ids)
	}

	// Delete routes to the owning shard and excludes the id globally.
	if err := coord.Delete(n); err != nil {
		t.Fatal(err)
	}
	if err := coord.Delete(n); err == nil {
		t.Fatal("double delete did not error")
	}
	if err := coord.Delete(coord.Len()); err == nil {
		t.Fatal("out-of-range delete did not error")
	}
	ids, err = coord.Search(tok, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == n {
			t.Fatalf("deleted global id %d still returned: %v", n, ids)
		}
	}
}

func TestMappingRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		m := Mapping{Shards: shards}
		counts := make([]int, shards)
		for g := 0; g < 200; g++ {
			s, local := m.Locate(g)
			if s < 0 || s >= shards {
				t.Fatalf("Locate(%d) shard %d out of range", g, s)
			}
			if local != counts[s] {
				t.Fatalf("Locate(%d) local %d, want %d (stripe order)", g, local, counts[s])
			}
			counts[s]++
			if back := m.global(s, local); back != g {
				t.Fatalf("Global(Locate(%d)) = %d", g, back)
			}
		}
		for s := 0; s < shards; s++ {
			if got := m.count(s, 200); got != counts[s] {
				t.Fatalf("Count(%d, 200) = %d, want %d", s, got, counts[s])
			}
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinatorWith(nil, Options{}); err == nil {
		t.Fatal("expected error for zero shards")
	}
	const n, dim = 120, 16
	w := newWorld(t, n, dim)
	parts, err := flushed(t, w.server).Split(2, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var shs []Shard
	for _, p := range parts {
		srv, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		shs = append(shs, Local{Srv: srv})
	}
	// Swapping the stripe order breaks the per-shard count invariant only
	// for odd totals; mutating one shard always does.
	payload, err := w.owner.EncryptVector(w.train[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shs[1].Insert(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinatorWith(shs, Options{}); err == nil {
		t.Fatal("expected error for a non-striped partition")
	}
}

// proxy is a severable TCP forwarder standing between a client and a
// shard server, so tests can kill the connection mid-deployment.
type proxy struct {
	l      net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	target string
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{l: l, target: target}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, conn, up)
			p.mu.Unlock()
			go func() { io.Copy(up, conn); up.Close() }()
			go func() { io.Copy(conn, up); conn.Close() }()
		}
	}()
	t.Cleanup(func() { p.kill() })
	return p
}

// kill severs every proxied connection and stops accepting new ones.
func (p *proxy) kill() {
	p.l.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// remoteCoordinator serves each split part over real TCP and wires a
// coordinator of transport clients; shard 1 sits behind a severable proxy.
func remoteCoordinator(t *testing.T, w *world, shards int) (*Coordinator, *proxy) {
	t.Helper()
	parts, err := flushed(t, w.server).Split(shards, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var px *proxy
	shs := make([]Shard, shards)
	for s, p := range parts {
		srv, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go transport.Serve(l, srv)
		addr := l.Addr().String()
		if s == 1 {
			px = newProxy(t, addr)
			addr = px.l.Addr().String()
		}
		client, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		shs[s] = client
	}
	coord, err := NewCoordinatorWith(shs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return coord, px
}

func TestScatterGatherOverTransport(t *testing.T) {
	const n, dim, k = 400, 16, 8
	w := newWorld(t, n, dim)
	coord, _ := remoteCoordinator(t, w, 2)

	opt := fullRecall(n)
	for qi, q := range w.queries[:10] {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.server.Search(tok, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Search(tok, k, opt)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("query %d:\nsharded   %v\nunsharded %v", qi, got, want)
		}
	}
}

// TestKilledShardSurfacesError kills one shard's connections mid-
// deployment: the scatter must answer with a *ShardError naming it — not
// hang, and not return a silently partial result — and keep failing fast
// afterwards, each call redialing the dead shard.
func TestKilledShardSurfacesError(t *testing.T) {
	const n, dim, k = 300, 16, 5
	w := newWorld(t, n, dim)
	coord, px := remoteCoordinator(t, w, 2)
	opt := fullRecall(n)

	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Search(tok, k, opt); err != nil {
		t.Fatalf("search before kill: %v", err)
	}

	px.kill()

	_, err = coord.Search(tok, k, opt)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.Shard != 1 {
		t.Fatalf("error names shard %d, want the killed shard 1", se.Shard)
	}

	// The killed shard's connection is poisoned, so the next call redials
	// instead of reading a desynced stream: with the shard still gone, the
	// dial is refused and the error names the shard.
	_, err = coord.Search(tok, k, opt)
	if !errors.As(err, &se) || se.Shard != 1 || !strings.Contains(se.Err.Error(), "transport: dial") {
		t.Fatalf("err after kill = %v, want a ShardError naming shard 1 with the refused redial", err)
	}
}

// forgedShard answers every search with one fixed result, whatever it was
// asked — what a hostile remote shard can put on the wire.
type forgedShard struct{ res core.ShardResult }

func (f forgedShard) SearchShardCancel(<-chan struct{}, *core.QueryToken, int, core.SearchOptions) (core.ShardResult, error) {
	return f.res, nil
}
func (forgedShard) Insert(*core.InsertPayload) (int, error) { return 0, errors.New("forged shard") }
func (forgedShard) Delete(int) error                        { return errors.New("forged shard") }
func (forgedShard) Info() (transport.Info, error) {
	return transport.Info{Backend: "hnsw", N: 1, Live: 1, Dim: 3}, nil
}

// TestForgedShardAnswersRefused: shard answers come from an untrusted
// server, so a merge of forged material must fail with an error, never
// panic — DCE records in another dimension than the trapdoor, fewer
// records than ids, and well-formed answers to a search with k ≤ 0 or in
// the filter-only mode, which has no records to merge by.
func TestForgedShardAnswersRefused(t *testing.T) {
	tok := &core.QueryToken{SAP: make([]float64, 3), Trapdoor: &dce.Trapdoor{Q: make([]float64, 12)}}
	good := core.ShardResult{IDs: []int{0}, Recs: [][]float64{make([]float64, 48)}}
	for _, tc := range []struct {
		name   string
		res    core.ShardResult
		k      int
		refine core.RefineMode
	}{
		{"dce records of dim 0", core.ShardResult{IDs: []int{0}, Recs: [][]float64{nil}}, 5, core.RefineDCE},
		{"dce records of another dim", core.ShardResult{IDs: []int{0}, Recs: [][]float64{make([]float64, 44)}}, 5, core.RefineDCE},
		{"fewer records than ids", core.ShardResult{IDs: []int{0, 1}, Recs: good.Recs}, 5, core.RefineDCE},
		{"answer to k=0", good, 0, core.RefineDCE},
		{"answer to k=-1", good, -1, core.RefineDCE},
		{"answer to filter-only", good, 5, core.RefineNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinatorWith([]Shard{forgedShard{tc.res}, forgedShard{tc.res}}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ids, err := coord.Search(tok, tc.k, core.SearchOptions{Refine: tc.refine}); err == nil {
				t.Fatalf("forged answers merged into %v", ids)
			}
		})
	}
	// Each case differs from an answer that merges in what it names only.
	coord, err := NewCoordinatorWith([]Shard{forgedShard{good}, forgedShard{good}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := coord.Search(tok, 5, core.SearchOptions{}); err != nil || !sameIDs(ids, []int{0, 1}) {
		t.Fatalf("well-formed answers merged into %v, %v; want [0 1]", ids, err)
	}
}

func TestShardErrorFormatting(t *testing.T) {
	inner := fmt.Errorf("boom")
	err := &ShardError{Shard: 2, Err: inner}
	if err.Error() != "shard 2: boom" {
		t.Fatalf("Error() = %q", err.Error())
	}
	if !errors.Is(err, inner) {
		t.Fatal("Unwrap does not expose the cause")
	}
}

// TestDivideEffortRecall pins the throughput mode of the coordinator: with
// Options.DivideEffort each shard runs its per-shard share of the filter
// effort, and the merged answers must stay at the same recall operating
// point as the unsharded server (the candidate pool keeps its total size,
// merely spread across shards).
func TestDivideEffortRecall(t *testing.T) {
	const n, dim, k = 500, 16, 10
	w := newWorld(t, n, dim)
	opt := core.SearchOptions{KPrime: 16 * k}

	for _, shards := range []int{2, 3} {
		parts, err := flushed(t, w.server).Split(shards, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		shs := make([]Shard, shards)
		for s, p := range parts {
			srv, err := core.NewServer(p)
			if err != nil {
				t.Fatal(err)
			}
			shs[s] = Local{Srv: srv}
		}
		coord, err := NewCoordinatorWith(shs, Options{DivideEffort: true})
		if err != nil {
			t.Fatal(err)
		}
		var recall float64
		for qi, q := range w.queries {
			tok, err := w.user.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.server.Search(tok, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Search(tok, k, opt)
			if err != nil {
				t.Fatalf("%d shards, query %d: %v", shards, qi, err)
			}
			if len(got) != k {
				t.Fatalf("%d shards, query %d: %d ids, want %d", shards, qi, len(got), k)
			}
			seen := map[int]bool{}
			for _, id := range got {
				if id < 0 || id >= n || seen[id] {
					t.Fatalf("%d shards, query %d: invalid or duplicate id %d in %v", shards, qi, id, got)
				}
				seen[id] = true
			}
			hits := 0
			for _, id := range want {
				if seen[id] {
					hits++
				}
			}
			recall += float64(hits) / float64(len(want))
		}
		recall /= float64(len(w.queries))
		if recall < 0.9 {
			t.Fatalf("%d shards: divided-effort recall vs unsharded = %.3f, want ≥ 0.9", shards, recall)
		}
	}
}

// TestPartitionOptions pins the per-shard effort arithmetic DivideEffort
// relies on.
func TestPartitionOptions(t *testing.T) {
	opt := core.SearchOptions{KPrime: 160}
	p := opt.Partition(2, 10)
	if p.KPrime != 80 || p.EfSearch != 80 {
		t.Fatalf("Partition(2, 10) of KPrime=160: %+v", p)
	}
	// The per-shard share floors at k: every shard must still produce a
	// full local top-k for the merge to select from.
	p = core.SearchOptions{KPrime: 12}.Partition(4, 10)
	if p.KPrime != 10 {
		t.Fatalf("share below k not floored: %+v", p)
	}
	if p.EfSearch < p.KPrime {
		t.Fatalf("beam narrower than the candidate count: %+v", p)
	}
	// A single shard changes nothing.
	if p := opt.Partition(1, 10); p != opt {
		t.Fatalf("Partition(1, ·) altered the options: %+v", p)
	}
}
