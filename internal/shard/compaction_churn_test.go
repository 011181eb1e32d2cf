package shard

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/index"
	"ppanns/internal/rng"
	"ppanns/internal/transport"
	"ppanns/internal/vec"
)

// replicatedCompactingTCP is replicatedRemoteCoordinator's write-path
// sibling: every replica server compacts aggressively (small CompactAt so
// the background fold fires mid-workload) and EVERY replica sits behind a
// severable proxy, so either side of a stripe can be killed. Returns the
// coordinator, the proxies, and the in-process server handles (for
// CompactionStats), both stripe-major.
func replicatedCompactingTCP(t *testing.T, w *world, stripes, rf, compactAt int, opts Options) (*Coordinator, [][]*rproxy, [][]*core.Server) {
	t.Helper()
	sets := make([][]Shard, stripes)
	proxies := make([][]*rproxy, stripes)
	srvs := make([][]*core.Server, stripes)
	for s := range sets {
		sets[s] = make([]Shard, rf)
		proxies[s] = make([]*rproxy, rf)
		srvs[s] = make([]*core.Server, rf)
	}
	for r := 0; r < rf; r++ {
		parts, err := flushed(t, w.server).Split(stripes, index.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range parts {
			srv, err := core.NewServerWith(p, core.ServerOptions{CompactAt: compactAt})
			if err != nil {
				t.Fatal(err)
			}
			srvs[s][r] = srv
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go transport.Serve(l, srv)
			proxies[s][r] = newRProxy(t, l.Addr().String())
			rm := transport.NewClient(proxies[s][r].addr, transport.DialOptions{DialTimeout: 2 * time.Second})
			t.Cleanup(func() { rm.Close() })
			sets[s][r] = rm
		}
	}
	coord, err := newReplicated(sets, opts, fastBreaker)
	if err != nil {
		t.Fatal(err)
	}
	return coord, proxies, srvs
}

// compactionStarted reports whether a server's background compactor has
// begun (or finished) at least one fold.
func compactionStarted(srv *core.Server) bool {
	cs := srv.CompactionStats()
	return cs.Compacting || cs.Generation > 0
}

// TestReplicatedChurnCompactionOverTCP is the replicated flavor of the
// write-path churn suite: an RF=2 topology served over real TCP sustains
// concurrent searches through a scripted insert/delete churn with
// background compactions folding on every replica, one replica is killed
// mid-compaction (zero failed queries; post-churn results identical to an
// unsharded server that applied the same mutations), and — the consistency
// backstop — a replica that missed writes while dead stays behind the
// epoch floor even after it compacts, so reads fail with ErrStaleReplica
// rather than serve its stale answers.
func TestReplicatedChurnCompactionOverTCP(t *testing.T) {
	const n, dim, k = 300, 16, 6
	const mutations = 150
	const compactAt = 24
	w := newWorld(t, n, dim)
	coord, proxies, srvs := replicatedCompactingTCP(t, w, 2, 2, compactAt, Options{})

	assertConformance(t, w, coord, k, "before churn (tcp)")

	// Concurrent searchers: during churn results cannot be compared
	// against a fixed reference, but every query must succeed and return
	// k ids — the zero-failed-queries contract.
	toks := make([]*core.QueryToken, len(w.queries))
	for i, q := range w.queries {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
	}
	churnOpt := core.SearchOptions{KPrime: 32, EfSearch: 64, Refine: core.RefineDCE}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var searchMu sync.Mutex
	var searchErr error
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ids, err := coord.Search(toks[(g+i)%len(toks)], k, churnOpt)
				if err == nil && len(ids) != k {
					err = errors.New("short result")
				}
				if err != nil {
					searchMu.Lock()
					if searchErr == nil {
						searchErr = err
					}
					searchMu.Unlock()
					return
				}
			}
		}(g)
	}

	// Scripted churn, mirrored onto the unsharded reference server so the
	// two stay in lockstep: 2/3 inserts, 1/3 deletes of random live ids.
	// Low gids are reserved (never deleted) for the stale-replica leg.
	r := rng.NewSeeded(77)
	pool := make([]int, 0, n+mutations)
	for gid := 10; gid < n; gid++ {
		pool = append(pool, gid)
	}
	killed := false
	missedStripe0 := 0
	for m := 0; m < mutations; m++ {
		if m%3 != 2 {
			// Perturbed rather than exact duplicates: an exact duplicate in
			// another stripe ties its twin at identical distance, and the
			// coordinator's merge breaks cross-stripe ties by stripe index
			// while the unsharded sort breaks them by id.
			payload, err := w.owner.EncryptVector(vec.Add(nil, w.train[r.IntN(n)], rng.GaussianVec(r, dim, 0.2)))
			if err != nil {
				t.Fatal(err)
			}
			gid, err := coord.Insert(payload)
			if err != nil && !errors.Is(err, ErrDegradedWrite) {
				t.Fatalf("mutation %d: insert: %v", m, err)
			}
			wid, werr := w.server.Insert(payload)
			if werr != nil {
				t.Fatal(werr)
			}
			if wid != gid {
				t.Fatalf("mutation %d: coordinator assigned gid %d, unsharded mirror %d", m, gid, wid)
			}
			pool = append(pool, gid)
			if killed && gid%2 == 0 {
				missedStripe0++
			}
		} else {
			pi := r.IntN(len(pool))
			gid := pool[pi]
			pool[pi] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if err := coord.Delete(gid); err != nil && !errors.Is(err, ErrDegradedWrite) {
				t.Fatalf("mutation %d: delete %d: %v", m, gid, err)
			}
			if err := w.server.Delete(gid); err != nil {
				t.Fatal(err)
			}
			if killed && gid%2 == 0 {
				missedStripe0++
			}
		}
		// Kill replica 0 of stripe 0 mid-compaction: once its background
		// compactor has demonstrably started, sever its TCP side while
		// churn continues. The in-process server keeps folding — only
		// its connectivity dies, as with a partitioned replica.
		if !killed && m >= mutations/3 && compactionStarted(srvs[0][0]) {
			proxies[0][0].kill()
			killed = true
		}
		if !killed && m == mutations-20 {
			deadline := time.Now().Add(10 * time.Second)
			for !compactionStarted(srvs[0][0]) {
				if time.Now().After(deadline) {
					t.Fatal("background compaction never started on replica (0,0)")
				}
				time.Sleep(2 * time.Millisecond)
			}
			proxies[0][0].kill()
			killed = true
		}
	}
	if !killed {
		t.Fatal("replica (0,0) was never killed during churn")
	}
	if missedStripe0 == 0 {
		t.Fatal("no stripe-0 write landed while replica (0,0) was dead — stale leg has nothing to test")
	}

	// The background compactor must have folded at least once on every
	// replica — the churn exceeded the trigger many times over.
	deadline := time.Now().Add(10 * time.Second)
	for s := range srvs {
		for r2 := range srvs[s] {
			for srvs[s][r2].CompactionStats().Generation == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("replica (%d,%d) never compacted: %+v", s, r2, srvs[s][r2].CompactionStats())
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	close(done)
	wg.Wait()
	if searchErr != nil {
		t.Fatalf("concurrent search failed during churn: %v", searchErr)
	}

	// Post-churn conformance with the dead replica still dead: reads fail
	// over, and the compacted replicated topology answers bit-identically
	// to the unsharded mirror at exhaustive k′.
	total := w.server.Len()
	opt := core.SearchOptions{KPrime: 2 * total, EfSearch: 16 * total, Refine: core.RefineDCE}
	for qi, tok := range toks {
		want, err := w.server.Search(tok, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Search(tok, k, opt)
		if err != nil {
			t.Fatalf("post-churn query %d failed: %v", qi, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("post-churn query %d:\nreplicated %v\nunsharded  %v", qi, got, want)
		}
	}

	// Stale-replica backstop: the dead replica returns, having missed
	// writes. It applies one more delete (so it has dirt to fold) and
	// compacts — the epoch is preserved across the fold, so it is STILL
	// below the stripe's floor. With the up-to-date replica killed, reads
	// must fail with ErrStaleReplica rather than serve its answers.
	proxies[0][0].restart(t)
	before := srvs[0][0].CompactionStats()
	if err := coord.Delete(4); err != nil && !errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("post-restart delete: %v", err)
	}
	if err := srvs[0][0].Compact(); err != nil {
		t.Fatalf("compacting the stale replica: %v", err)
	}
	after := srvs[0][0].CompactionStats()
	if after.Generation != before.Generation+1 {
		t.Fatalf("stale replica generation %d after manual compact, want %d", after.Generation, before.Generation+1)
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("stale replica epoch %d after one applied delete + compact, want %d (compaction must preserve the epoch)", after.Epoch, before.Epoch+1)
	}
	if after.Delta != 0 || after.Tombstones != 0 {
		t.Fatalf("stale replica not clean after manual compact: %+v", after)
	}
	proxies[0][1].kill()
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, err := coord.Search(toks[0], k, opt)
		if err == nil {
			t.Fatal("search succeeded with only the stale compacted replica reachable — stale answer served")
		}
		if errors.Is(err, ErrStaleReplica) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("search never surfaced ErrStaleReplica: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
