package core_test

import (
	"errors"
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

// surface is one way a batch of queries reaches the one search body:
// which method, in-process or over the wire, with merge material or not.
type surface struct {
	name  string
	merge bool // results carry the refine mode's merge material
	wire  bool // results crossed the wire: DCE material is Recs
	run   func(toks []*core.QueryToken, k int, opt core.SearchOptions) ([]core.ShardResult, []error)
}

// each adapts a single-query method to the batch shape.
func each(search func(*core.QueryToken, int, core.SearchOptions) (core.ShardResult, error)) func([]*core.QueryToken, int, core.SearchOptions) ([]core.ShardResult, []error) {
	return func(toks []*core.QueryToken, k int, opt core.SearchOptions) ([]core.ShardResult, []error) {
		rs, errs := make([]core.ShardResult, len(toks)), make([]error, len(toks))
		for i, tok := range toks {
			rs[i], errs[i] = search(tok, k, opt)
		}
		return rs, errs
	}
}

func surfaces(srv *core.Server, client *transport.Client) []surface {
	local := shard.Local{Srv: srv}
	return []surface{
		{name: "server/single", merge: true, run: each(srv.SearchShard)},
		{name: "server/batch", merge: true, run: srv.SearchShardBatch},
		{name: "local/single", merge: true, run: each(local.SearchShard)},
		{name: "local/batch", merge: true, run: func(toks []*core.QueryToken, k int, opt core.SearchOptions) ([]core.ShardResult, []error) {
			rs, errs, _ := local.SearchShardBatch(toks, k, opt)
			return rs, errs
		}},
		{name: "tcp/search", wire: true, run: each(func(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
			ids, err := client.Search(tok, k, opt)
			return core.ShardResult{IDs: ids}, err
		})},
		{name: "tcp/search+merge", merge: true, wire: true, run: each(client.SearchShard)},
		{name: "tcp/searchbatch", wire: true, run: func(toks []*core.QueryToken, k int, opt core.SearchOptions) ([]core.ShardResult, []error) {
			ids, err := client.SearchBatch(toks, k, opt)
			rs, errs := make([]core.ShardResult, len(toks)), make([]error, len(toks))
			var be *core.BatchError
			if errors.As(err, &be) {
				for _, qe := range be.Failed {
					errs[qe.Query] = qe.Err
				}
			} else if err != nil {
				for i := range errs {
					errs[i] = err
				}
				return rs, errs
			}
			for i := range ids {
				rs[i].IDs = ids[i]
			}
			return rs, errs
		}},
		{name: "tcp/searchbatch+merge", merge: true, wire: true, run: func(toks []*core.QueryToken, k int, opt core.SearchOptions) ([]core.ShardResult, []error) {
			rs, errs, err := client.SearchShardBatch(toks, k, opt)
			if err != nil {
				rs, errs = make([]core.ShardResult, len(toks)), make([]error, len(toks))
				for i := range errs {
					errs[i] = err
				}
			}
			return rs, errs
		}},
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
// SearchShard and SearchShardBatch on the server, through shard.Local, and
// the search and searchbatch ops over TCP with Merge on and off — across
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
					opt := core.SearchOptions{RatioK: 8, Refine: refine, FilterDist: filter, Parallelism: 2}
					want := make([][]int, len(toks))
					for i, tok := range toks {
						if want[i], err = srv.Search(tok, k, opt); (err != nil) != (i == bad) {
							t.Fatalf("%v/%v: Search of query %d: %v", refine, filter, i, err)
						}
					}
					for _, sf := range surfaces(srv, client) {
						where := fmt.Sprintf("%v/%v/%s", refine, filter, sf.name)
						rs, errs := sf.run(toks, k, opt)
						if len(rs) != len(toks) || len(errs) != len(toks) {
							t.Fatalf("%s: %d results, %d errors for %d queries", where, len(rs), len(errs), len(toks))
						}
						for i := range toks {
							if i == bad {
								if errs[i] == nil || rs[i].IDs != nil {
									t.Fatalf("%s: bad query %d answered %v, err %v", where, i, rs[i].IDs, errs[i])
								}
								continue
							}
							if errs[i] != nil || !slices.Equal(rs[i].IDs, want[i]) {
								t.Fatalf("%s: query %d = %v (err %v), Search = %v", where, i, rs[i].IDs, errs[i], want[i])
							}
							if sf.merge {
								checkMaterial(t, edb, refine, sf.wire, rs[i])
							}
						}

						// k arrives from the wire: whatever it is, the answer
						// is an error or at most n ids, and the memory a
						// request can claim is bounded by n, not by k.
						for _, kk := range []int{-1, 0, n, n + 1, 1 << 40} {
							var before, after runtime.MemStats
							runtime.ReadMemStats(&before)
							rs, errs := sf.run(toks[:1], kk, opt)
							runtime.ReadMemStats(&after)
							if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
								t.Fatalf("%s: k=%d allocated %d bytes", where, kk, got)
							}
							switch got := len(rs[0].IDs); {
							case kk <= 0 && errs[0] == nil:
								t.Fatalf("%s: k=%d accepted", where, kk)
							case kk > 0 && (errs[0] != nil || got == 0 || got > n):
								t.Fatalf("%s: k=%d returned %d ids, err %v", where, kk, got, errs[0])
							}
						}
					}
				}
			}
		})
	}
}
