// Clientserver deploys the paper's Figure-1 system model over real TCP:
// the data owner encrypts and ships the database; the cloud server hosts
// it; the user sends encrypted query tokens over the network and gets ids
// back. Run modes:
//
//	go run ./examples/clientserver                 # demo: all roles, localhost
//	go run ./examples/clientserver -mode sharded -shards 3   # scatter-gather tier
//	go run ./examples/clientserver -mode replicated -shards 2   # RF=2 failover tier
//	go run ./examples/clientserver -mode server -addr :7070
//	go run ./examples/clientserver -mode client -addr host:7070 -keyfile user.key
//
// In server mode the owner also writes the authorized user key to -keyfile
// (hand it to clients over a secure channel).
//
// Sharded mode deploys the horizontal topology of internal/shard in one
// process: the owner's encrypted database is striped across -shards shard
// servers, each listening on its own TCP socket, and a scatter-gather
// coordinator fans every query out and merges the per-shard top-k — then
// checks the merged answers against an unsharded server on the same
// vectors.
//
// Replicated mode runs every stripe twice (RF=2, each replica on its own
// socket), then kills one replica of every stripe mid-workload: queries
// keep succeeding with identical results, the dead replicas' circuit
// breakers open, and when the replicas come back the breakers re-close.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ppanns"
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/shard"
	"ppanns/internal/transport"
)

var (
	mode    = flag.String("mode", "demo", "demo | sharded | replicated | server | client")
	addr    = flag.String("addr", "127.0.0.1:7070", "listen/dial address")
	keyfile = flag.String("keyfile", "user.key", "user key file (written by server, read by client)")
	n       = flag.Int("n", 4000, "database size (server/demo)")
	shards  = flag.Int("shards", 3, "shard count (sharded mode)")
)

func main() {
	flag.Parse()
	switch *mode {
	case "demo":
		demo()
	case "sharded":
		sharded(*shards)
	case "replicated":
		replicated(*shards)
	case "server":
		runServer(*addr, *keyfile)
	case "client":
		runClient(*addr, *keyfile)
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
}

// buildWorld plays the data owner: encrypt the corpus, return the pieces.
func buildWorld() (*dataset.Data, *ppanns.DataOwner, *ppanns.EncryptedDatabase, *ppanns.Server) {
	data := dataset.DeepLike(*n, 20, 9)
	owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: 0.3, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data.Train)
	if err != nil {
		log.Fatal(err)
	}
	server, err := ppanns.NewServer(edb)
	if err != nil {
		log.Fatal(err)
	}
	return data, owner, edb, server
}

func runServer(addr, keyfile string) {
	data, owner, _, server := buildWorld()
	f, err := os.Create(keyfile)
	if err != nil {
		log.Fatal(err)
	}
	if err := ppanns.SaveUserKey(f, owner.UserKey()); err != nil {
		log.Fatal(err)
	}
	f.Close()
	log.Printf("encrypted %d×%d-d vectors; user key written to %s", len(data.Train), data.Dim, keyfile)

	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("cloud server listening on %s", l.Addr())
	if err := transport.Serve(l, server); err != nil {
		log.Fatal(err)
	}
}

func runClient(addr, keyfile string) {
	f, err := os.Open(keyfile)
	if err != nil {
		log.Fatal(err)
	}
	key, err := ppanns.LoadUserKey(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	user, err := ppanns.NewUser(key)
	if err != nil {
		log.Fatal(err)
	}
	// Production-shaped dial: deadlines on connect and on every call, so a
	// stalled server surfaces as an error instead of a hang (the client is
	// poisoned afterwards — redial to recover).
	client, err := transport.DialWith(addr, transport.DialOptions{
		DialTimeout: 5 * time.Second,
		Timeout:     10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Query with a fresh vector from the same distribution.
	probe := dataset.DeepLike(1, 1, 77)
	tok, err := user.Query(probe.Queries[0])
	if err != nil {
		log.Fatal(err)
	}
	ids, err := client.Search(tok, 10, core.SearchOptions{RatioK: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("neighbors from remote server: %v\n", ids)
}

// sharded deploys 1 coordinator over nShards shard servers, each a real
// TCP process boundary, and cross-checks the scatter-gather answers
// against the unsharded server.
func sharded(nShards int) {
	data, owner, edb, unsharded := buildWorld()

	parts, err := edb.Split(nShards, ppanns.IndexOptions{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	members := make([]shard.Shard, nShards)
	for s, p := range parts {
		srv, err := ppanns.NewServer(p)
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go transport.Serve(l, srv)
		client, err := transport.Dial(l.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		fmt.Printf("shard %d: %d encrypted vectors on %s\n", s, srv.Len(), l.Addr())
		members[s] = client
	}
	coord, err := shard.NewCoordinator(members)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator over %d shards (%s index), %d vectors total\n",
		coord.Shards(), coord.Backend(), coord.Len())

	user, err := ppanns.NewUser(owner.UserKey())
	if err != nil {
		log.Fatal(err)
	}

	// Scatter-gather each query and cross-check against the unsharded
	// server.
	opt := core.SearchOptions{RatioK: 16, EfSearch: 160}
	gt := data.GroundTruth(10)
	toks := make([]*core.QueryToken, len(data.Queries))
	var recall float64
	agree := 0
	for i, q := range data.Queries {
		tok, err := user.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		toks[i] = tok
		ids, err := coord.Search(tok, 10, opt)
		if err != nil {
			log.Fatal(err)
		}
		recall += dataset.Recall(ids, gt[i])
		want, err := unsharded.Search(tok, 10, opt)
		if err != nil {
			log.Fatal(err)
		}
		if equalIDs(ids, want) {
			agree++
		}
	}
	fmt.Printf("scatter-gather Recall@10: %.3f (%d queries, %d/%d identical to unsharded)\n",
		recall/float64(len(data.Queries)), len(data.Queries), agree, len(data.Queries))

	// Throughput mode: a divide-effort coordinator hands every shard its
	// 1/N share of the filter work, so the tier stops paying N× compute
	// per query (results stay at the same recall operating point but are
	// no longer guaranteed bit-identical to the unsharded server).
	fast, err := shard.NewCoordinatorWith(members, shard.Options{DivideEffort: true})
	if err != nil {
		log.Fatal(err)
	}
	var fastRecall float64
	for i, tok := range toks {
		ids, err := fast.Search(tok, 10, opt)
		if err != nil {
			log.Fatal(err)
		}
		fastRecall += dataset.Recall(ids, gt[i])
	}
	fmt.Printf("divide-effort coordinator Recall@10: %.3f (≈1/%d filter work per shard)\n",
		fastRecall/float64(len(toks)), nShards)

	// Owner-side update routed to the owning shard.
	payload, err := owner.EncryptVector(data.Train[0])
	if err != nil {
		log.Fatal(err)
	}
	gid, err := coord.Insert(payload)
	if err != nil {
		log.Fatal(err)
	}
	s, local := shard.Mapping{Shards: nShards}.Locate(gid)
	fmt.Printf("inserted duplicate of vector 0 as global id %d → shard %d local %d; coordinator now tracks %d vectors\n",
		gid, s, local, coord.Len())
}

// replica is one killable shard server: kill() severs its listener and
// every open connection (a crash, as seen from the network); restart()
// brings the same server back on the same address.
type replica struct {
	srv  *ppanns.Server
	addr string

	mu    sync.Mutex
	l     net.Listener
	conns []net.Conn
}

func startReplica(srv *ppanns.Server) *replica {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	r := &replica{srv: srv, addr: l.Addr().String()}
	r.serveOn(l)
	return r
}

func (r *replica) serveOn(l net.Listener) {
	r.mu.Lock()
	r.l = l
	r.mu.Unlock()
	go transport.Serve(&trackingListener{Listener: l, r: r}, r.srv)
}

func (r *replica) kill() {
	r.mu.Lock()
	l := r.l
	r.l = nil
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

func (r *replica) restart() {
	l, err := net.Listen("tcp", r.addr)
	if err != nil {
		log.Fatal(err)
	}
	r.serveOn(l)
}

// trackingListener records accepted connections so kill can sever them.
type trackingListener struct {
	net.Listener
	r *replica
}

func (t *trackingListener) Accept() (net.Conn, error) {
	conn, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.r.mu.Lock()
	t.r.conns = append(t.r.conns, conn)
	t.r.mu.Unlock()
	return conn, nil
}

// replicated deploys every stripe at RF=2 over TCP, then walks the
// failure lifecycle: kill one replica of each stripe mid-workload (zero
// failed queries, identical results, breakers open), bring them back
// (breakers re-close), and show a hedged read beating a slow replica.
func replicated(nStripes int) {
	const rf = 2
	data, owner, edb, unsharded := buildWorld()

	// Each replica of a stripe is an independent server over the same
	// striped part; Split is deterministic for a fixed seed.
	sets := make([][]shard.Shard, nStripes)
	replicas := make([][]*replica, nStripes)
	for s := range sets {
		sets[s] = make([]shard.Shard, rf)
		replicas[s] = make([]*replica, rf)
	}
	for rIdx := 0; rIdx < rf; rIdx++ {
		parts, err := edb.Split(nStripes, ppanns.IndexOptions{Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		for s, p := range parts {
			srv, err := ppanns.NewServer(p)
			if err != nil {
				log.Fatal(err)
			}
			rep := startReplica(srv)
			replicas[s][rIdx] = rep
			rm := shard.NewRemote(rep.addr, transport.DialOptions{DialTimeout: 5 * time.Second})
			defer rm.Close()
			sets[s][rIdx] = rm
			fmt.Printf("stripe %d replica %d: %d encrypted vectors on %s\n", s, rIdx, srv.Len(), rep.addr)
		}
	}
	coord, err := shard.NewReplicated(sets, shard.Options{
		Breaker: shard.BreakerOptions{Threshold: 3, Backoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replicated coordinator: %d stripes × %d replicas, %d vectors total\n",
		coord.Shards(), rf, coord.Len())

	user, err := ppanns.NewUser(owner.UserKey())
	if err != nil {
		log.Fatal(err)
	}
	opt := core.SearchOptions{RatioK: 16, EfSearch: 160}
	toks := make([]*core.QueryToken, len(data.Queries))
	for i, q := range data.Queries {
		if toks[i], err = user.Query(q); err != nil {
			log.Fatal(err)
		}
	}
	run := func(phase string) {
		agree := 0
		for i, tok := range toks {
			ids, err := coord.Search(tok, 10, opt)
			if err != nil {
				log.Fatalf("%s: query %d failed: %v", phase, i, err)
			}
			want, err := unsharded.Search(tok, 10, opt)
			if err != nil {
				log.Fatal(err)
			}
			if equalIDs(ids, want) {
				agree++
			}
		}
		fmt.Printf("%s: %d/%d queries succeeded, %d identical to unsharded\n",
			phase, len(toks), len(toks), agree)
	}
	openBreakers := func() int {
		open := 0
		for _, h := range coord.Health() {
			if h.State != shard.BreakerClosed {
				open++
			}
		}
		return open
	}

	run("all replicas up")

	// Crash replica 0 of every stripe: failover keeps every query alive.
	for s := range replicas {
		replicas[s][0].kill()
	}
	run("replica 0 of every stripe killed")
	fmt.Printf("breakers open after the crash workload: %d of %d\n", openBreakers(), nStripes*rf)

	// The replicas come back: half-open probes readmit them.
	for s := range replicas {
		replicas[s][0].restart()
	}
	deadline := time.Now().Add(10 * time.Second)
	for openBreakers() > 0 && time.Now().Before(deadline) {
		if _, err := coord.Search(toks[0], 10, opt); err != nil {
			log.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("breakers open after the replicas returned: %d\n", openBreakers())
	run("after recovery")
}

// equalIDs reports whether two result lists match exactly, order included.
func equalIDs(a, b []int) bool {
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

// demo runs owner, server and user in one process over a loopback socket.
func demo() {
	data, owner, _, server := buildWorld()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go transport.Serve(l, server)
	fmt.Printf("cloud server on %s hosting %d encrypted vectors\n", l.Addr(), len(data.Train))

	user, err := ppanns.NewUser(owner.UserKey())
	if err != nil {
		log.Fatal(err)
	}
	client, err := transport.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	gt := data.GroundTruth(10)
	var recall float64
	for i, q := range data.Queries {
		tok, err := user.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		ids, err := client.Search(tok, 10, core.SearchOptions{RatioK: 16, EfSearch: 160})
		if err != nil {
			log.Fatal(err)
		}
		recall += dataset.Recall(ids, gt[i])
	}
	fmt.Printf("Recall@10 over TCP: %.3f (%d queries)\n", recall/float64(len(data.Queries)), len(data.Queries))

	// Multiplexing: many goroutines share the one connection,
	// their requests pipeline, and the demux routes each response to its
	// caller — no per-goroutine dialing, no head-of-line lockstep. Tokens
	// are encrypted up front so the goroutines time the wire alone; a User
	// may also be queried from many goroutines at once.
	toks := make([]*core.QueryToken, len(data.Queries))
	for i, q := range data.Queries {
		tok, err := user.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		toks[i] = tok
	}
	var wg sync.WaitGroup
	var pipelined atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(toks); i += 4 {
				if _, err := client.Search(toks[i], 10, core.SearchOptions{RatioK: 16}); err != nil {
					log.Fatal(err)
				}
				pipelined.Add(1)
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("pipelined %d concurrent queries over one connection\n", pipelined.Load())

	// Owner-side update shipped over the same channel.
	payload, err := owner.EncryptVector(data.Train[0])
	if err != nil {
		log.Fatal(err)
	}
	id, err := client.Insert(payload)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Delete(id); err != nil {
		log.Fatal(err)
	}
	nvec, err := client.Len()
	if err != nil {
		log.Fatal(err)
	}
	live, err := client.Live()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted duplicate of vector 0 as id %d, then deleted it; server holds %d records, %d live\n",
		id, nvec, live)
}
