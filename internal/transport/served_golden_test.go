package transport_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/index"
	"ppanns/internal/shard"
	"ppanns/internal/transport"
)

// TestServedGoldenOverTCP pins what the wire tiers answer and what they
// send, for the 32 probe tokens of core's TestServedGolden over the same
// seeded owners (its "fresh" point):
//
//   - transport.Client.Search and SearchShard on loopback must answer
//     exactly what the server answers in process, so each filter mode's
//     probe digest — the wire's ids beside the in-process SearchStats —
//     is core's fresh digest, copied here unedited;
//   - every search and search-shard call's request and response frame,
//     counted on the server's side of the connection, has a pinned length;
//   - a 2-stripe shard.Coordinator over two loopback servers of
//     Split(2) answers with a pinned digest (its ids beside zero stats:
//     a coordinator reports none), with DivideEffort (the benchmark's
//     mode) and without it (dbtool's mode), and each stripe's
//     search-shard request and response has a pinned length;
//   - the coordinator's read makes a pinned number of allocations, the
//     servers' share included.
//
// The lengths follow from the token's and the record's dimensions and
// the codecs of internal/core; a change to either layout re-pins them and
// says why in CHANGES.md. The digests were captured at commit 67d8c42.
func TestServedGoldenOverTCP(t *testing.T) {
	want := []struct {
		set       string
		exact, pq string // core's fresh digests
		full      string // coordinator answer digests: full effort,
		divided   string // and DivideEffort
		// Frame lengths: every search request (to a server or a stripe),
		// a search response, and a search-shard response (to the client
		// or to the coordinator from each stripe).
		req, resp, shardResp int
	}{
		{"deep",
			"d1d14b9bfd2b030f93236517c5d9c7009fd0b2556562bc308d8de90f5edb6b6f",
			"e3d2d854633ee068465aa413ea350355526318ade756635fb005210b75e8a4d2",
			"847ad9df6a4a3b20df1530b7cae59928aeeaf63cfb672e4d83477c8a2dc34715",
			"308c203f7a086f98ec39939e2c18b24399aca8e94aec2525e95f40a81558146a",
			2498, 102, 66674},
		{"gist",
			"b40965e6ab5654b7fe174319829cd69dbe073b92359b903b65dfd8ada2348c3a",
			"e64cb73e863e30c5549b2c02aca3da47762f36cdc541c3581c3e64ff8b9dd422",
			"76b5a171366ff3e903a0b30e62fb2c3b3e123406bd5e7e75a54dc0d825f743fb",
			"76b5a171366ff3e903a0b30e62fb2c3b3e123406bd5e7e75a54dc0d825f743fb",
			23234, 102, 619634},
	}
	// coordAllocs is a 2-stripe coordinator read over loopback: the
	// scatter, both stripes' calls and handlers, and the merge.
	const coordAllocs = 32
	data := map[string]*dataset.Data{
		"deep": dataset.DeepLike(2000, 32+60, 91),
		"gist": dataset.GISTLike(300, 32+60, 92),
	}
	beta := map[string]float64{"deep": 0.5, "gist": 4.1}
	for _, w := range want {
		probes := data[w.set].Queries[:32]
		for _, backend := range []string{"hnsw", "ivf"} {
			g := servedOverTCP(t, data[w.set].Train, probes,
				core.Params{Dim: len(probes[0]), Beta: beta[w.set], Seed: 93, Index: backend, PQ: true, PQM: 8})
			name := w.set + "/" + backend
			for _, c := range []struct {
				what      string
				got, want string
			}{
				{"exact digest", g.digests["exact"], w.exact},
				{"pq digest", g.digests["pq"], w.pq},
				{"coordinator digest", g.digests["full"], w.full},
				{"DivideEffort coordinator digest", g.digests["divided"], w.divided},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s %s, want %s", name, c.what, c.got, c.want)
				}
			}
			for op, lens := range g.bytes {
				wantResp := w.shardResp
				if op == "search" {
					wantResp = w.resp
				}
				if lens != [2]int{w.req, wantResp} {
					t.Errorf("%s: %s request/response %d/%d bytes, want %d/%d", name, op, lens[0], lens[1], w.req, wantResp)
				}
			}
			if len(g.bytes) != 4 {
				t.Errorf("%s: byte lengths of %d ops, want 4: %v", name, len(g.bytes), g.bytes)
			}
			if !raceEnabled {
				for mode, a := range g.allocs {
					if a != coordAllocs {
						t.Errorf("%s: %s coordinator read allocates %.1f objects, want %d", name, mode, a, coordAllocs)
					}
				}
			}
		}
	}
}

// countingListener hands out connections that count the bytes they read
// and write, so a test can attribute each call's frames on the server's
// side of the connection.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

// Read counts what it read before handing it on, and Write counts what it
// is asked to write before writing it, so a client that holds its answer
// sees both counts settled.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// counts returns the bytes the listener's connections read and wrote.
func (l *countingListener) counts() (int, int) {
	return int(l.read.Load()), int(l.written.Load())
}

// serve starts transport.Serve for srv on a loopback counting listener
// and returns it; cleanup closes the listener and waits for Serve, which
// closes every connection it accepted.
func serve(t *testing.T, srv *core.Server) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := transport.Serve(cl, srv); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cl.Close()
		wg.Wait()
	})
	return cl
}

// callBytes runs call and returns the request and response bytes l's
// connections carried for it. Only one call may be in flight on l.
func callBytes(t *testing.T, l *countingListener, call func() error) (req, resp int) {
	t.Helper()
	r0, w0 := l.counts()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	r1, w1 := l.counts()
	return r1 - r0, w1 - w0
}

// sameBytes records the first call's lengths under name in into and
// fails when a later call's differ: every probe sends one token of the
// same shape and gets back k answers.
func sameBytes(t *testing.T, into map[string][2]int, name string, req, resp int) {
	t.Helper()
	if prev, ok := into[name]; ok && prev != [2]int{req, resp} {
		t.Errorf("%s: %d/%d request/response bytes, an earlier probe %d/%d", name, req, resp, prev[0], prev[1])
	}
	into[name] = [2]int{req, resp}
}

// served is what servedOverTCP saw.
type served struct {
	digests map[string]string  // exact, pq, full, divided
	bytes   map[string][2]int  // op or stripe → request/response bytes
	allocs  map[string]float64 // full, divided → coordinator read allocations
}

// servedOverTCP builds one seeded owner, serves its database and the two
// stripes of its Split(2) on loopback, draws one user's tokens for probes,
// and runs each through Client.Search, Client.SearchShard and a
// coordinator over the stripes, k=10.
func servedOverTCP(t *testing.T, train, probes [][]float64, params core.Params) served {
	t.Helper()
	owner, err := core.NewDataOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(train)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := edb.Split(2, index.Options{})
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
	toks := make([]*core.QueryToken, len(probes))
	for i, q := range probes {
		if toks[i], err = user.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	out := served{digests: map[string]string{}, bytes: map[string][2]int{}, allocs: map[string]float64{}}

	l := serve(t, srv)
	client, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, mode := range []core.FilterDistMode{core.FilterExact, core.FilterPQ} {
		opt := core.SearchOptions{FilterDist: mode}
		var direct, wired, sharded digest
		for _, tok := range toks {
			ids, st, err := srv.SearchInto(nil, tok, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			direct.add(ids, st)
			var wids []int
			req, resp := callBytes(t, l, func() (err error) {
				wids, err = client.Search(tok, 10, opt)
				return err
			})
			sameBytes(t, out.bytes, "search", req, resp)
			wired.add(wids, st)
			var res core.ShardResult
			req, resp = callBytes(t, l, func() (err error) {
				res, err = client.SearchShard(tok, 10, opt)
				return err
			})
			sameBytes(t, out.bytes, "search-shard", req, resp)
			sharded.add(res.IDs, st)
		}
		d := direct.sum()
		if w := wired.sum(); w != d {
			t.Errorf("%v: Client.Search digest %s, in process %s", mode, w, d)
		}
		if s := sharded.sum(); s != d {
			t.Errorf("%v: Client.SearchShard digest %s, in process %s", mode, s, d)
		}
		out.digests[mode.String()] = d
	}

	stripes := make([]*countingListener, len(parts))
	for s, p := range parts {
		psrv, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		stripes[s] = serve(t, psrv)
	}
	for name, divide := range map[string]bool{"full": false, "divided": true} {
		shs := make([]shard.Shard, len(stripes))
		for s, sl := range stripes {
			rm := shard.NewRemote(sl.Addr().String(), transport.DialOptions{})
			defer rm.Close()
			shs[s] = rm
		}
		c, err := shard.NewCoordinatorWith(shs, shard.Options{DivideEffort: divide})
		if err != nil {
			t.Fatal(err)
		}
		var answers digest
		before := make([][2]int, len(stripes))
		for _, tok := range toks {
			for s, sl := range stripes {
				before[s][0], before[s][1] = sl.counts()
			}
			ids, err := c.Search(tok, 10, core.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for s, sl := range stripes {
				r, w := sl.counts()
				sameBytes(t, out.bytes, fmt.Sprintf("stripe %d", s), r-before[s][0], w-before[s][1])
			}
			answers.add(ids, core.SearchStats{})
		}
		out.digests[name] = answers.sum()
		i := 0
		out.allocs[name] = testing.AllocsPerRun(64, func() {
			tok := toks[i%len(toks)]
			i++
			if _, err := c.Search(tok, 10, core.SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	return out
}

// digest hashes a probe list's answers as core's TestServedGolden does:
// per query its id count, ids, SearchStats.Comparisons and Candidates.
type digest struct {
	h   hash.Hash
	buf []byte
}

func (d *digest) add(ids []int, st core.SearchStats) {
	if d.h == nil {
		d.h = sha256.New()
	}
	b := binary.LittleEndian.AppendUint32(d.buf[:0], uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Comparisons))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Candidates))
	d.h.Write(b)
	d.buf = b
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }
