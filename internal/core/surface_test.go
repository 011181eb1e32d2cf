package core_test

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
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
	wire  bool // results crossed the wire: the records are copies
	run   func(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error)
}

func surfaces(srv *core.Server, client *transport.Client) []surface {
	return []surface{
		{name: "server", merge: true, run: srv.SearchShard},
		{name: "local", merge: true, run: func(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
			return shard.Local{Srv: srv}.SearchShardCancel(nil, tok, k, opt)
		}},
		{name: "tcp/search", wire: true, run: func(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
			ids, err := client.Search(tok, k, opt)
			return core.ShardResult{IDs: ids}, err
		}},
		{name: "tcp/search+merge", merge: true, wire: true, run: client.SearchShard},
	}
}

// checkMaterial asserts a result carries one DCE record per id, each the
// record the server holds for it — in process a view into the snapshot's
// arena, over the wire a copy.
func checkMaterial(t *testing.T, edb *core.EncryptedDatabase, wire bool, r core.ShardResult) {
	t.Helper()
	if len(r.Recs) != len(r.IDs) {
		t.Fatalf("%d DCE records for %d ids", len(r.Recs), len(r.IDs))
	}
	for i, id := range r.IDs {
		stored := edb.DCE.Record(id)
		if !slices.Equal(r.Recs[i], stored) {
			t.Fatalf("Recs[%d] is not the stored record of id %d", i, id)
		}
		if view := &r.Recs[i][0] == &stored[0]; view == wire {
			t.Fatalf("Recs[%d] is a view into the arena: %v, want %v", i, view, !wire)
		}
	}
}

// TestSearchShardMatchesSearch drives every surviving search entry point —
// SearchShard on the server and through shard.Local, and the search and
// search-shard ops over TCP — across refine mode × filter distance ×
// backend, and asserts each returns the ids Search returns, merge material
// consistent with them, one bad token failing alone, and any k answered
// with an error or at most n ids from a bounded amount of memory. The
// merge surfaces refuse the filter-only mode, which has no records to
// merge by; the ids surfaces serve it.
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
					opt := core.SearchOptions{KPrime: 8 * k, Refine: refine, FilterDist: filter}
					want := make([][]int, len(toks))
					for i, tok := range toks {
						if want[i], err = srv.Search(tok, k, opt); (err != nil) != (i == bad) {
							t.Fatalf("%v/%v: Search of query %d: %v", refine, filter, i, err)
						}
					}
					for _, sf := range surfaces(srv, client) {
						where := fmt.Sprintf("%v/%v/%s", refine, filter, sf.name)
						if sf.merge && refine != core.RefineDCE {
							for i, tok := range toks {
								if r, err := sf.run(tok, k, opt); err == nil || !strings.Contains(err.Error(), "filter-only") || r.IDs != nil {
									t.Fatalf("%s: query %d answered %v, err %v; want the filter-only refusal", where, i, r.IDs, err)
								}
							}
							continue
						}
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
								checkMaterial(t, edb, sf.wire, r)
							}
						}

						// k arrives from the wire: whatever it is, the answer
						// is an error or at most n ids, and the memory a
						// request can claim is bounded by n, not by k.
						for _, kk := range []int{-1, 0, n, n + 1, math.MaxInt} {
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
