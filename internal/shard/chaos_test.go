package shard

import (
	"net"
	"os"
	"testing"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/index"
	"ppanns/internal/transport"
)

// chaosIters scales a chaos workload: the default keeps the suite fast,
// PPANNS_CHAOS=1 (the CI chaos leg) runs the long version.
func chaosIters(short, long int) int {
	if os.Getenv("PPANNS_CHAOS") == "1" {
		return long
	}
	return short
}

// TestChaosFailoverZeroFailures is the seeded chaos run: replica 0 of
// every stripe sits behind a wire that randomly delays and drops
// connections AND a client-side fault layer that randomly errors, while
// replica 1 stays clean. However the dice land, failover must rescue every
// query: zero failures, results identical to the unsharded server.
func TestChaosFailoverZeroFailures(t *testing.T) {
	const n, dim, k = 300, 16, 6
	const stripes, rf = 2, 2
	w := newWorld(t, n, dim)

	sets := make([][]Shard, stripes)
	for s := range sets {
		sets[s] = make([]Shard, rf)
	}
	for r := 0; r < rf; r++ {
		parts, err := flushed(t, w.server).Split(stripes, index.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
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
			if r == 0 {
				// Replica 0 gets the hostile wire: seeded per-read delays
				// and occasional connection drops.
				l = transport.Chaos(l, transport.ChaosOptions{
					Seed:      uint64(1000 + s),
					DelayRate: 0.10,
					Delay:     time.Millisecond,
					DropRate:  0.03,
				})
			}
			go transport.Serve(l, srv)
			rm := transport.NewClient(l.Addr().String(), transport.DialOptions{DialTimeout: 2 * time.Second})
			t.Cleanup(func() { rm.Close() })
			if r == 0 {
				// And a flaky application layer on top of the flaky wire.
				f := NewFaulty(rm, uint64(2000+s))
				f.Set("search", FaultSpec{ErrRate: 0.10})
				sets[s][r] = f
			} else {
				sets[s][r] = rm
			}
		}
	}
	coord, err := newReplicated(sets, Options{}, fastBreaker)
	if err != nil {
		t.Fatal(err)
	}

	opt := fullRecall(n)
	toks := make([]*core.QueryToken, len(w.queries))
	want := make([][]int, len(w.queries))
	for i, q := range w.queries {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
		if want[i], err = w.server.Search(tok, k, opt); err != nil {
			t.Fatal(err)
		}
	}

	iters := chaosIters(30, 300)
	for it := 0; it < iters; it++ {
		qi := it % len(toks)
		got, err := coord.Search(toks[qi], k, opt)
		if err != nil {
			t.Fatalf("iter %d: query failed under chaos: %v", it, err)
		}
		if !sameIDs(got, want[qi]) {
			t.Fatalf("iter %d: chaos corrupted results:\ngot  %v\nwant %v", it, got, want[qi])
		}
		if it%10 == 5 {
			for i, tok := range toks[:4] {
				got, err := coord.Search(tok, k, opt)
				if err != nil {
					t.Fatalf("iter %d: query %d failed under chaos: %v", it, i, err)
				}
				if !sameIDs(got, want[i]) {
					t.Fatalf("iter %d: chaos corrupted query %d:\ngot  %v\nwant %v", it, i, got, want[i])
				}
			}
		}
	}
}
