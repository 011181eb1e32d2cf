package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ppanns/internal/index"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// TestUserQueryConcurrent: one User answers Query from 8 goroutines at once.
// The keys draw per-token randomness under their own locks, so every token
// is a correct one — its DCE comparisons order the database as the
// plaintext does — and the race detector sees no unsynchronized state. A
// trapdoor that kept per-key scratch would fail here.
func TestUserQueryConcurrent(t *testing.T) {
	const (
		n, dim    = 64, 12
		workers   = 8
		perWorker = 50
	)
	data := clustered(17, n, dim, 4)
	owner, err := NewDataOwner(Params{Dim: dim, Beta: 0.5, Seed: 17, Index: "hnsw"})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewSeeded(uint64(100 + w))
			for i := 0; i < perWorker; i++ {
				q := rng.GaussianVec(r, dim, 6)
				tok, err := user.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				// Adjacent ids in plaintext order must compare the same way
				// under DCE, ties (below a 1e-9 relative gap) excepted.
				order := bruteForce(data, q, n, nil)
				for j := 1; j < n; j++ {
					a, b := order[j-1], order[j]
					da, db := vec.SqDist(data[a], q), vec.SqDist(data[b], q)
					if db-da <= 1e-9*(da+db+1) {
						continue
					}
					if z := edb.DCE.DistanceComp(a, b, tok.Trapdoor); z >= 0 {
						t.Errorf("worker %d query %d: DCE says %d is not closer than %d (Z=%g, %g < %g)", w, i, a, b, z, da, db)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestUserTokensOwnStream: two Users made from one seeded key emit the
// same tokens whether they are queried one after the other or from two
// goroutines in either order, because each draws from a stream forked from
// the key when it was made; and the two Users' tokens for one query differ.
func TestUserTokensOwnStream(t *testing.T) {
	const n, dim, queries = 48, 10, 20
	data := clustered(23, n, dim, 3)
	qs := make([][]float64, queries)
	r := rng.NewSeeded(29)
	for i := range qs {
		qs[i] = rng.GaussianVec(r, dim, 6)
	}
	// users returns two Users of a fresh owner with one seed, made in
	// order, and run queries them as the schedule says.
	users := func() [2]*User {
		owner, err := NewDataOwner(Params{Dim: dim, Beta: 0.5, Seed: 23, Index: "hnsw"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.EncryptDatabase(data); err != nil {
			t.Fatal(err)
		}
		var us [2]*User
		for i := range us {
			if us[i], err = NewUser(owner.UserKey()); err != nil {
				t.Fatal(err)
			}
		}
		return us
	}
	tokens := func(u *User) []*QueryToken {
		out := make([]*QueryToken, len(qs))
		for i, q := range qs {
			tok, err := u.Query(q)
			if err != nil {
				t.Error(err)
				return nil
			}
			out[i] = tok
		}
		return out
	}
	same := func(a, b *QueryToken) bool {
		return slices.Equal(bits(a.SAP), bits(b.SAP)) && slices.Equal(bits(a.Trapdoor.Q), bits(b.Trapdoor.Q))
	}

	us := users()
	want := [2][]*QueryToken{tokens(us[0]), tokens(us[1])}
	for i := range qs {
		if slices.Equal(bits(want[0][i].SAP), bits(want[1][i].SAP)) || slices.Equal(bits(want[0][i].Trapdoor.Q), bits(want[1][i].Trapdoor.Q)) {
			t.Fatalf("query %d: both users' tokens share a part", i)
		}
	}
	for _, schedule := range []string{"second first", "concurrent"} {
		us := users()
		var got [2][]*QueryToken
		if schedule == "second first" {
			got[1], got[0] = tokens(us[1]), tokens(us[0])
		} else {
			var wg sync.WaitGroup
			for u := range us {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[u] = tokens(us[u])
				}()
			}
			wg.Wait()
		}
		for u := range us {
			for i := range qs {
				if got[u] == nil || !same(got[u][i], want[u][i]) {
					t.Fatalf("%s: user %d query %d: the token differs from the one queried in order", schedule, u, i)
				}
			}
		}
	}
}

// bits returns the IEEE bits of v.
func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestSnapshotIsolationUnderChurn is the concurrency conformance test of
// the snapshot-publication serving model, run against every serving
// filter-index backend: parallel lock-free searches race against a
// scripted stream of interleaved Insert/Delete mutations, and every
// result set must reflect exactly one published snapshot — each returned
// id was live at the epoch that served the query, no id from a
// half-applied insert, no tombstone resurrection, no torn reads (the race
// detector's half of the contract). The mutation script is fixed up
// front, so the exact live set of every epoch is known before the race
// starts and searchers can verify against it without synchronizing with
// the mutator.
func TestSnapshotIsolationUnderChurn(t *testing.T) {
	const (
		n, dim    = 240, 8
		mutations = 30
		searchers = 3
	)
	data := clustered(91, n, dim, 5)

	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 91, Index: name}, data)
			// Script the mutation sequence. Epoch e is the state after the
			// first e mutations, so liveAt[e] is exact.
			type mutation struct {
				insert []float64 // nil = delete
				del    int
			}
			var muts []mutation
			nextDel := 0
			inserts := 0
			for m := 0; m < mutations; m++ {
				if m%2 == 0 {
					muts = append(muts, mutation{insert: data[m]})
					inserts++
				} else {
					muts = append(muts, mutation{insert: nil, del: nextDel})
					nextDel += 3 // distinct ids, all within the initial set
				}
			}
			liveAt := make([][]bool, mutations+1)
			live := make([]bool, n+inserts)
			for i := 0; i < n; i++ {
				live[i] = true
			}
			liveAt[0] = append([]bool(nil), live...)
			nextID := n
			for e, mu := range muts {
				if mu.insert != nil {
					live[nextID] = true
					nextID++
				} else {
					live[mu.del] = false
				}
				liveAt[e+1] = append([]bool(nil), live...)
			}

			toks := make([]*QueryToken, 8)
			for i := range toks {
				toks[i] = mustToken(t, w, data[i*7])
			}

			var done atomic.Bool
			var iters atomic.Int64
			errCh := make(chan error, searchers+1)
			var wg sync.WaitGroup
			for s := 0; s < searchers; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					var dst []int
					for rep := 0; !done.Load(); rep++ {
						tok := toks[(s+rep)%len(toks)]
						var st SearchStats
						var err error
						dst, st, err = w.server.SearchInto(dst[:0], tok, 5, SearchOptions{KPrime: 40})
						if err != nil {
							errCh <- fmt.Errorf("searcher %d: %v", s, err)
							return
						}
						if st.Epoch > uint64(len(liveAt)-1) {
							errCh <- fmt.Errorf("searcher %d: served epoch %d beyond the %d published", s, st.Epoch, len(liveAt)-1)
							return
						}
						liveSet := liveAt[st.Epoch]
						for _, id := range dst {
							if id < 0 || id >= len(liveSet) || !liveSet[id] {
								errCh <- fmt.Errorf("searcher %d: epoch %d returned id %d, not live in that snapshot", s, st.Epoch, id)
								return
							}
						}
						iters.Add(1)
					}
				}(s)
			}

			// The mutator runs the script concurrently with the searchers,
			// letting at least one search complete between mutations so the
			// two streams genuinely interleave even on a single CPU.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				for e, mu := range muts {
					before := iters.Load()
					for iters.Load() == before {
						runtime.Gosched()
					}
					if mu.insert != nil {
						payload, err := w.owner.EncryptVector(mu.insert)
						if err != nil {
							errCh <- err
							return
						}
						if _, err := w.server.Insert(payload); err != nil {
							errCh <- fmt.Errorf("mutation %d (insert): %v", e, err)
							return
						}
					} else if err := w.server.Delete(mu.del); err != nil {
						errCh <- fmt.Errorf("mutation %d (delete %d): %v", e, mu.del, err)
						return
					}
					if got := w.server.Epoch(); got != uint64(e+1) {
						errCh <- fmt.Errorf("mutation %d published epoch %d, want %d", e, got, e+1)
						return
					}
				}
			}()
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if iters.Load() == 0 {
				t.Fatal("searchers never overlapped the mutation stream")
			}

			// The final snapshot adds up and has quiesced.
			wantLive := 0
			for _, l := range liveAt[len(liveAt)-1] {
				if l {
					wantLive++
				}
			}
			if got := w.server.Len(); got != n+inserts {
				t.Fatalf("final Len = %d, want %d", got, n+inserts)
			}
			if got := w.server.Live(); got != wantLive {
				t.Fatalf("final Live = %d, want %d", got, wantLive)
			}
			if got := w.server.Epoch(); got != mutations {
				t.Fatalf("final epoch = %d, want %d", got, mutations)
			}
		})
	}
}
