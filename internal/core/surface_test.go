package core_test

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/index"
	"ppanns/internal/shard"
	"ppanns/internal/transport"
)

// surface is one way a query reaches the one search body: which method,
// in-process or over the wire, with merge material or not.
type surface struct {
	name  string
	merge bool // results carry the refine mode's merge material
	wire  bool // results crossed the wire: DCE material is Recs
	run   func(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error)
}

func surfaces(srv *core.Server, client *transport.Client) []surface {
	return []surface{
		{name: "server", merge: true, run: srv.SearchShard},
		{name: "local", merge: true, run: shard.Local{Srv: srv}.SearchShard},
		{name: "tcp/search", wire: true, run: func(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
			ids, err := client.Search(tok, k, opt)
			return core.ShardResult{IDs: ids}, err
		}},
		{name: "tcp/search+merge", merge: true, wire: true, run: client.SearchShard},
	}
}

// checkMaterial asserts a result's merge material is the active refine
// mode's, parallel to its ids, and addresses the records the server holds.
func checkMaterial(t *testing.T, edb *core.EncryptedDatabase, refine core.RefineMode, wire bool, r core.ShardResult) {
	t.Helper()
	switch refine {
	case core.RefineDCE:
		if r.CtDim != edb.DCE.CtDim() {
			t.Fatalf("CtDim %d, want %d", r.CtDim, edb.DCE.CtDim())
		}
		if !wire {
			if r.Store == nil || r.Recs != nil {
				t.Fatalf("in-process DCE material must be the store view (Store %v, %d Recs)", r.Store != nil, len(r.Recs))
			}
			for _, id := range r.IDs {
				if !r.Store.Has(id) {
					t.Fatalf("Store has no live record for id %d", id)
				}
			}
			return
		}
		if r.Store != nil || len(r.Recs) != len(r.IDs) {
			t.Fatalf("wire DCE material must be %d record copies (Store %v, %d Recs)", len(r.IDs), r.Store != nil, len(r.Recs))
		}
		for i, id := range r.IDs {
			if !slices.Equal(r.Recs[i], edb.DCE.Record(id)) {
				t.Fatalf("Recs[%d] is not the stored record of id %d", i, id)
			}
		}
	case core.RefineNone:
		if len(r.Dists) != len(r.IDs) || !slices.IsSorted(r.Dists) {
			t.Fatalf("filter distances %v for %d ids", r.Dists, len(r.IDs))
		}
	}
}

// TestSearchShardMatchesSearch drives every surviving search entry point —
// SearchShard on the server and through shard.Local, and the search op over
// TCP with Merge on and off — across
// refine mode × filter distance × backend, and asserts each returns the ids
// Search returns, merge material consistent with them, one bad token
// failing alone, and any k answered with an error or at most n ids from a
// bounded amount of memory.
func TestSearchShardMatchesSearch(t *testing.T) {
	const n, dim, k = 300, 8, 5
	data := core.Clustered(33, n, dim, 4)
	queries := core.MakeQueries(34, data, 5, 0.3)
	for _, backend := range index.Names() {
		t.Run(backend, func(t *testing.T) {
			owner, err := core.NewDataOwner(core.Params{Dim: dim, Beta: 0.3, Seed: 33, Index: backend, PQ: true, PQM: 4})
			if err != nil {
				t.Fatal(err)
			}
			edb, err := owner.EncryptDatabase(data)
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
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go transport.Serve(l, srv)
			client, err := transport.Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			// The bad token fails in every refine mode and is
			// representable on the wire: its SAP has the wrong dimension.
			const bad = 2
			toks := make([]*core.QueryToken, 0, len(queries)+1)
			for i, q := range queries {
				if i == bad {
					toks = append(toks, &core.QueryToken{SAP: make([]float64, dim+1)})
				}
				tok, err := user.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				toks = append(toks, tok)
			}

			for _, refine := range []core.RefineMode{core.RefineDCE, core.RefineNone} {
				for _, filter := range []core.FilterDistMode{core.FilterExact, core.FilterPQ} {
					opt := core.SearchOptions{RatioK: 8, Refine: refine, FilterDist: filter}
					want := make([][]int, len(toks))
					for i, tok := range toks {
						if want[i], err = srv.Search(tok, k, opt); (err != nil) != (i == bad) {
							t.Fatalf("%v/%v: Search of query %d: %v", refine, filter, i, err)
						}
					}
					for _, sf := range surfaces(srv, client) {
						where := fmt.Sprintf("%v/%v/%s", refine, filter, sf.name)
						for i, tok := range toks {
							r, err := sf.run(tok, k, opt)
							if i == bad {
								if err == nil || r.IDs != nil {
									t.Fatalf("%s: bad query %d answered %v, err %v", where, i, r.IDs, err)
								}
								continue
							}
							if err != nil || !slices.Equal(r.IDs, want[i]) {
								t.Fatalf("%s: query %d = %v (err %v), Search = %v", where, i, r.IDs, err, want[i])
							}
							if sf.merge {
								checkMaterial(t, edb, refine, sf.wire, r)
							}
						}

						// k arrives from the wire: whatever it is, the answer
						// is an error or at most n ids, and the memory a
						// request can claim is bounded by n, not by k.
						for _, kk := range []int{-1, 0, n, n + 1, 1 << 40} {
							var before, after runtime.MemStats
							runtime.ReadMemStats(&before)
							r, err := sf.run(toks[0], kk, opt)
							runtime.ReadMemStats(&after)
							if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
								t.Fatalf("%s: k=%d allocated %d bytes", where, kk, got)
							}
							switch got := len(r.IDs); {
							case kk <= 0 && err == nil:
								t.Fatalf("%s: k=%d accepted", where, kk)
							case kk > 0 && (err != nil || got == 0 || got > n):
								t.Fatalf("%s: k=%d returned %d ids, err %v", where, kk, got, err)
							}
						}
					}
				}
			}
		})
	}
}
