package shard

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/index"
	"ppanns/internal/transport"
)

// fastBreaker keeps breaker-driven tests quick: trips after 2 consecutive
// failures, re-probes within milliseconds. The coordinators the test
// helpers wire all run it.
var fastBreaker = breakerTuning{threshold: 2, backoff: 2 * time.Millisecond, maxBackoff: 20 * time.Millisecond}

// TestBreakerLifecycle walks one breaker through its whole state machine
// with explicit clocks — no sleeps, fully deterministic.
func TestBreakerLifecycle(t *testing.T) {
	b := &breaker{tune: breakerTuning{threshold: 3, backoff: 40 * time.Millisecond, maxBackoff: 100 * time.Millisecond}}
	t0 := time.Now()

	if !b.allow(t0) {
		t.Fatal("fresh breaker refused a request")
	}
	b.failure(t0)
	b.failure(t0)
	if st, _ := b.snapshot(); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed (threshold 3)", st)
	}
	// A success resets the consecutive count: two more failures still do
	// not trip.
	b.success()
	b.failure(t0)
	b.failure(t0)
	if st, fails := b.snapshot(); st != BreakerClosed || fails != 2 {
		t.Fatalf("state/fails = %v/%d, want closed/2", st, fails)
	}
	b.failure(t0)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", st)
	}
	if b.allow(t0.Add(39 * time.Millisecond)) {
		t.Fatal("open breaker admitted a request before the backoff expired")
	}

	// Backoff expired: exactly one half-open probe goes through.
	t1 := t0.Add(41 * time.Millisecond)
	if !b.allow(t1) {
		t.Fatal("breaker did not half-open after the backoff")
	}
	if st, _ := b.snapshot(); st != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	if b.allow(t1) {
		t.Fatal("half-open breaker admitted a second probe")
	}

	// Failed probe: re-open with doubled backoff.
	b.failure(t1)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if b.allow(t1.Add(79 * time.Millisecond)) {
		t.Fatal("re-tripped breaker ignored the doubled backoff")
	}
	t2 := t1.Add(81 * time.Millisecond)
	if !b.allow(t2) {
		t.Fatal("breaker did not half-open after the doubled backoff")
	}

	// Successful probe: fully closed, counters reset.
	b.success()
	if st, fails := b.snapshot(); st != BreakerClosed || fails != 0 {
		t.Fatalf("state/fails after recovery = %v/%d, want closed/0", st, fails)
	}
	if !b.allow(t2) {
		t.Fatal("recovered breaker refused a request")
	}

	// The backoff doubling caps at MaxBackoff: however many times it
	// re-trips, the open window stays bounded.
	for i := 0; i < 10; i++ {
		b.failure(t2)
		b.failure(t2)
		b.failure(t2)
		if !b.allow(t2.Add(101 * time.Millisecond)) {
			t.Fatalf("re-trip %d: breaker still open past MaxBackoff", i)
		}
		t2 = t2.Add(101 * time.Millisecond)
	}
}

// replicatedCoordinator builds an in-process RF-replicated topology over
// the world's database: each stripe is served by rf independently built
// identical servers (Split is deterministic for a fixed seed), every
// replica wrapped in a Faulty for fault injection. Returns the coordinator
// and the fault handles, stripe-major.
func replicatedCoordinator(t *testing.T, w *world, stripes, rf int, opts Options) (*Coordinator, [][]*Faulty) {
	t.Helper()
	sets := make([][]Shard, stripes)
	faults := make([][]*Faulty, stripes)
	for s := range sets {
		sets[s] = make([]Shard, rf)
		faults[s] = make([]*Faulty, rf)
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
			f := NewFaulty(Local{Srv: srv}, uint64(100+10*s+r))
			sets[s][r] = f
			faults[s][r] = f
		}
	}
	coord, err := newReplicated(sets, opts, fastBreaker)
	if err != nil {
		t.Fatal(err)
	}
	return coord, faults
}

// healthOf returns the breaker state of one replica.
func healthOf(c *Coordinator, stripe, replica int) BreakerState {
	for _, h := range c.Health() {
		if h.Stripe == stripe && h.Replica == replica {
			return h.State
		}
	}
	return BreakerState(-1)
}

// assertConformance runs every world query through both the unsharded
// server and the coordinator at full recall and requires identical ids.
func assertConformance(t *testing.T, w *world, coord *Coordinator, k int, phase string) {
	t.Helper()
	opt := fullRecall(len(w.train))
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
			t.Fatalf("%s: query %d failed: %v", phase, qi, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("%s: query %d:\nreplicated %v\nunsharded  %v", phase, qi, got, want)
		}
	}
}

// TestReplicatedKilledReplicaConformance is the in-process acceptance test
// of the replica tier: with RF=2, killing one replica of every stripe
// mid-workload yields zero failed queries and results identical to the
// unsharded server; the killed replicas' breakers open, and re-close after
// the replicas return.
func TestReplicatedKilledReplicaConformance(t *testing.T) {
	const n, dim, k = 400, 16, 8
	w := newWorld(t, n, dim)
	coord, faults := replicatedCoordinator(t, w, 2, 2, Options{})

	assertConformance(t, w, coord, k, "all replicas up")

	// Kill replica 0 of every stripe mid-workload.
	for s := range faults {
		faults[s][0].Kill()
	}
	assertConformance(t, w, coord, k, "replica 0 of every stripe dead")
	for s := range faults {
		if st := healthOf(coord, s, 0); st == BreakerClosed {
			t.Fatalf("stripe %d: dead replica's breaker still closed after the workload", s)
		}
		if st := healthOf(coord, s, 1); st != BreakerClosed {
			t.Fatalf("stripe %d: surviving replica's breaker = %v, want closed", s, st)
		}
	}

	// The replicas return: half-open probes must readmit them.
	for s := range faults {
		faults[s][0].Revive()
	}
	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := coord.Search(tok, k, opt); err != nil {
			t.Fatalf("search during recovery: %v", err)
		}
		if healthOf(coord, 0, 0) == BreakerClosed && healthOf(coord, 1, 0) == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers did not re-close after revival: %+v", coord.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	assertConformance(t, w, coord, k, "after recovery")
}

// rproxy is a severable and restartable TCP forwarder: kill closes the
// listener and every proxied connection; restart re-listens on the same
// address, so redialing clients find the replica again.
type rproxy struct {
	addr   string
	target string

	mu    sync.Mutex
	l     net.Listener
	conns []net.Conn
}

func newRProxy(t *testing.T, target string) *rproxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rproxy{addr: l.Addr().String(), target: target, l: l}
	go p.acceptLoop(l)
	t.Cleanup(func() { p.kill() })
	return p
}

func (p *rproxy) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
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
}

func (p *rproxy) kill() {
	p.mu.Lock()
	l := p.l
	p.l = nil
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

func (p *rproxy) restart(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.l = l
	p.mu.Unlock()
	go p.acceptLoop(l)
}

// replicatedRemoteCoordinator serves every replica over real TCP and wires
// the coordinator from lazily dialed, self-healing transport clients;
// replica 0 of each stripe sits behind a restartable proxy.
func replicatedRemoteCoordinator(t *testing.T, w *world, stripes, rf int, opts Options) (*Coordinator, []*rproxy) {
	t.Helper()
	sets := make([][]Shard, stripes)
	for s := range sets {
		sets[s] = make([]Shard, rf)
	}
	proxies := make([]*rproxy, stripes)
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
			go transport.Serve(l, srv)
			addr := l.Addr().String()
			if r == 0 {
				proxies[s] = newRProxy(t, addr)
				addr = proxies[s].addr
			}
			rm := transport.NewClient(addr, transport.DialOptions{DialTimeout: 2 * time.Second})
			t.Cleanup(func() { rm.Close() })
			sets[s][r] = rm
		}
	}
	coord, err := newReplicated(sets, opts, fastBreaker)
	if err != nil {
		t.Fatal(err)
	}
	return coord, proxies
}

// TestReplicatedKilledReplicaOverTCP is the over-the-wire flavor of the
// acceptance test: killing one replica of every stripe (severing its
// connections AND its address) mid-workload yields zero failed queries and
// unsharded-identical results; after the replicas come back, the breakers
// re-close through redialed connections.
func TestReplicatedKilledReplicaOverTCP(t *testing.T) {
	const n, dim, k = 300, 16, 6
	w := newWorld(t, n, dim)
	coord, proxies := replicatedRemoteCoordinator(t, w, 2, 2, Options{})

	assertConformance(t, w, coord, k, "all replicas up (tcp)")

	for _, px := range proxies {
		px.kill()
	}
	assertConformance(t, w, coord, k, "replica 0 of every stripe dead (tcp)")
	for s := range proxies {
		if st := healthOf(coord, s, 0); st == BreakerClosed {
			t.Fatalf("stripe %d: dead replica's breaker still closed", s)
		}
	}

	for _, px := range proxies {
		px.restart(t)
	}
	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := coord.Search(tok, k, opt); err != nil {
			t.Fatalf("search during recovery: %v", err)
		}
		if healthOf(coord, 0, 0) == BreakerClosed && healthOf(coord, 1, 0) == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers did not re-close after proxy restart: %+v", coord.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertConformance(t, w, coord, k, "after recovery (tcp)")
}

// TestRefusalIsAnAnswer: a request every replica refuses — an insert or a
// query token of another dimension — is the replicas answering, not
// failing. After three of each every breaker is still closed with no
// failure counted, in process and over TCP, and no id is consumed; a
// killed replica still trips its breaker.
func TestRefusalIsAnAnswer(t *testing.T) {
	const n, dim, k = 200, 8, 5
	w := newWorld(t, n, dim)
	other, err := core.NewDataOwner(core.Params{Dim: dim + 1, Beta: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	otherTrain, otherQueries := testData(3, 16, dim+1, 1)
	if _, err := other.EncryptDatabase(otherTrain); err != nil {
		t.Fatal(err)
	}
	bad, err := other.EncryptVector(otherTrain[0])
	if err != nil {
		t.Fatal(err)
	}
	otherUser, err := core.NewUser(other.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	badTok, err := otherUser.Query(otherQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n)

	local, faults := replicatedCoordinator(t, w, 2, 2, Options{})
	remote, proxies := replicatedRemoteCoordinator(t, w, 2, 2, Options{})
	for _, tc := range []struct {
		name  string
		coord *Coordinator
		kill  func()
	}{
		{"local", local, faults[0][0].Kill},
		{"tcp", remote, proxies[0].kill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for range 3 {
				if _, err := tc.coord.Insert(bad); !errors.Is(err, transport.ErrRefused) {
					t.Fatalf("insert of another dimension: %v, want a refusal", err)
				}
				if _, err := tc.coord.Search(badTok, k, opt); !errors.Is(err, transport.ErrRefused) {
					t.Fatalf("search with a token of another dimension: %v, want a refusal", err)
				}
			}
			for _, h := range tc.coord.Health() {
				if h.State != BreakerClosed || h.Fails != 0 {
					t.Fatalf("after refused requests: %+v, want every breaker closed with 0 fails", tc.coord.Health())
				}
			}
			if tc.coord.Len() != n {
				t.Fatalf("Len after refused inserts = %d, want %d", tc.coord.Len(), n)
			}
			tc.kill()
			for i := 0; healthOf(tc.coord, 0, 0) == BreakerClosed; i++ {
				if i == 20 {
					t.Fatalf("killed replica's breaker still closed after %d searches: %+v", i, tc.coord.Health())
				}
				if _, err := tc.coord.Search(tok, k, opt); err != nil {
					t.Fatalf("search with a killed replica: %v", err)
				}
			}
		})
	}
}

// TestHedgedReadsCutStragglerLatency pins the hedging path: with one
// replica per stripe stalling far beyond the hedge budget, hedged queries
// must finish near the fast replica's latency — and return exactly the
// fast replica's (identical) results.
func TestHedgedReadsCutStragglerLatency(t *testing.T) {
	const n, dim, k = 300, 16, 6
	const stall = 300 * time.Millisecond
	w := newWorld(t, n, dim)
	coord, faults := replicatedCoordinator(t, w, 2, 2, Options{
		HedgeAfter: 5 * time.Millisecond,
	})
	for s := range faults {
		faults[s][0].Set("search", FaultSpec{Delay: stall})
	}

	opt := fullRecall(n)
	const queries = 6
	start := time.Now()
	for qi := 0; qi < queries; qi++ {
		tok, err := w.user.Query(w.queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.server.Search(tok, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Search(tok, k, opt)
		if err != nil {
			t.Fatalf("hedged query %d: %v", qi, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("hedged query %d:\ngot  %v\nwant %v", qi, got, want)
		}
	}
	elapsed := time.Since(start)
	// Unhedged, the round-robin start lands on the stalled replica for
	// about half the queries, costing ≈ queries/2 × stall ≥ 900ms. Hedged,
	// every stalled attempt is overtaken after 5ms. Allow a wide margin
	// for CI jitter: anything under half the unhedged floor proves the
	// hedge fired.
	if elapsed > queries/2*stall/2 {
		t.Fatalf("hedged workload took %v, want well under the %v unhedged floor", elapsed, queries/2*stall)
	}

	// The abandoned losers must not have wedged anything: clear the stall
	// and the topology still answers exactly.
	for s := range faults {
		faults[s][0].Set("search", FaultSpec{})
	}
	assertConformance(t, w, coord, k, "after hedged phase")
}

// TestAllowPartialDeadStripe pins graceful degradation: with a whole
// stripe dead and AllowPartial set, searches return the surviving stripes'
// merged answer plus a *PartialError naming the dead stripe — and with
// every stripe dead, a hard error (empty "results" would be a lie).
func TestAllowPartialDeadStripe(t *testing.T) {
	const n, dim, k = 300, 16, 6
	w := newWorld(t, n, dim)
	coord, faults := replicatedCoordinator(t, w, 2, 1, Options{AllowPartial: true})
	opt := fullRecall(n)
	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}

	// Stripe 1 dies (its only replica).
	faults[1][0].Kill()
	ids, err := coord.Search(tok, k, opt)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Stripes) != 1 || pe.Stripes[0] != 1 {
		t.Fatalf("PartialError names stripes %v, want [1]", pe.Stripes)
	}
	if !errors.Is(pe, ErrInjected) {
		t.Fatalf("PartialError does not expose the injected cause: %v", pe)
	}
	if len(ids) != k {
		t.Fatalf("partial search returned %d ids, want %d", len(ids), k)
	}
	for _, id := range ids {
		if id%2 != 0 {
			t.Fatalf("partial result contains id %d from the dead stripe 1: %v", id, ids)
		}
	}

	// Every stripe dead: no best-effort answer to give.
	faults[0][0].Kill()
	if _, err := coord.Search(tok, k, opt); err == nil || errors.As(err, &pe) {
		t.Fatalf("all-stripes-dead err = %v, want a hard ShardError", err)
	}

	// Without AllowPartial a dead stripe stays query-fatal.
	faults[0][0].Revive()
	strict, _ := replicatedCoordinator(t, w, 2, 1, Options{})
	strictFaults := strict.stripes[1].replicas[0].(*Faulty)
	strictFaults.Kill()
	var se *ShardError
	if _, err := strict.Search(tok, k, opt); !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("strict-mode err = %v, want *ShardError naming stripe 1", err)
	}
}

// TestDegradedWriteAndReadYourWrites pins the partial-write contract: a
// write applied by only some replicas of its stripe returns
// ErrDegradedWrite with per-replica outcomes, the write counts, and —
// through the epoch floor — reads never land on the replica that missed
// it.
func TestDegradedWriteAndReadYourWrites(t *testing.T) {
	const n, dim, k = 300, 16, 2
	w := newWorld(t, n, dim)
	coord, faults := replicatedCoordinator(t, w, 2, 2, Options{})

	// Global id n lands on stripe n%2 = 0. Replica 1 of that stripe
	// refuses the insert.
	faults[0][1].Set("insert", FaultSpec{ErrRate: 1})
	payload, err := w.owner.EncryptVector(w.train[0])
	if err != nil {
		t.Fatal(err)
	}
	gid, err := coord.Insert(payload)
	if gid != n {
		t.Fatalf("degraded insert assigned gid %d, want %d", gid, n)
	}
	var dw *DegradedWriteError
	if !errors.As(err, &dw) || !errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("err = %v, want *DegradedWriteError matching ErrDegradedWrite", err)
	}
	if dw.Op != "insert" || dw.Stripe != 0 {
		t.Fatalf("DegradedWriteError names %s/stripe %d, want insert/0", dw.Op, dw.Stripe)
	}
	if dw.Outcomes[0].Err != nil || dw.Outcomes[1].Err == nil || !errors.Is(dw.Outcomes[1].Err, ErrInjected) {
		t.Fatalf("outcomes = %+v, want replica 0 applied, replica 1 injected failure", dw.Outcomes)
	}
	if coord.Len() != n+1 {
		t.Fatalf("Len after degraded insert = %d, want %d (the write counts)", coord.Len(), n+1)
	}

	// Read-your-writes: the inserted duplicate of train[0] must be
	// findable on every read, whichever replica the round-robin starts at
	// — the stale replica answers below the floor and the read fails over.
	faults[0][1].Set("insert", FaultSpec{})
	tok, err := w.user.Query(w.train[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n + 1)
	for i := 0; i < 4; i++ {
		ids, err := coord.Search(tok, k, opt)
		if err != nil {
			t.Fatalf("read %d after degraded write: %v", i, err)
		}
		found := false
		for _, id := range ids {
			if id == gid {
				found = true
			}
		}
		if !found {
			t.Fatalf("read %d lost the degraded write: %v does not contain %d", i, ids, gid)
		}
	}

	// A write every replica refuses is void: no id consumed, a hard error.
	faults[1][0].Set("insert", FaultSpec{ErrRate: 1})
	faults[1][1].Set("insert", FaultSpec{ErrRate: 1})
	if _, err := coord.Insert(payload); err == nil || errors.Is(err, ErrDegradedWrite) || !errors.Is(err, ErrInjected) {
		t.Fatalf("all-replicas-failed insert err = %v, want hard injected failure", err)
	}
	if coord.Len() != n+1 {
		t.Fatalf("Len after void insert = %d, want %d", coord.Len(), n+1)
	}

	// Degraded delete: same contract, and the tombstone wins on reads.
	faults[0][1].Set("delete", FaultSpec{ErrRate: 1})
	err = coord.Delete(gid)
	if !errors.As(err, &dw) || dw.Op != "delete" {
		t.Fatalf("degraded delete err = %v, want *DegradedWriteError (delete)", err)
	}
	faults[0][1].Set("delete", FaultSpec{})
	for i := 0; i < 4; i++ {
		ids, err := coord.Search(tok, k, opt)
		if err != nil {
			t.Fatalf("read %d after degraded delete: %v", i, err)
		}
		for _, id := range ids {
			if id == gid {
				t.Fatalf("read %d resurrected the deleted id %d (stale replica served): %v", i, gid, ids)
			}
		}
	}
}

// TestKilledReplicaMidBatchEpochSafety covers a query stream under replica
// death: deletes applied everywhere, then one replica of every stripe
// killed mid-workload — every query must succeed exactly and never return
// an id deleted before the stream started.
func TestKilledReplicaMidBatchEpochSafety(t *testing.T) {
	const n, dim, k = 300, 16, 6
	w := newWorld(t, n, dim)
	coord, faults := replicatedCoordinator(t, w, 2, 2, Options{})

	deleted := []int{0, 1, 2, 3}
	for _, gid := range deleted {
		if err := coord.Delete(gid); err != nil {
			t.Fatal(err)
		}
		if err := w.server.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	for s := range faults {
		faults[s][0].Kill()
	}

	dead := map[int]bool{}
	for _, gid := range deleted {
		dead[gid] = true
	}
	opt := fullRecall(n)
	for i, q := range w.queries {
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
			t.Fatalf("query %d with killed replicas: %v", i, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("query %d:\nreplicated %v\nunsharded  %v", i, got, want)
		}
		for _, id := range got {
			if dead[id] {
				t.Fatalf("query %d returned id %d deleted before the stream: %v", i, id, got)
			}
		}
	}
}

// TestStaleReplicaNeverServesResurrectedIds is the consistency backstop:
// when the only reachable replica of a stripe is one that missed a delete,
// reads fail with ErrStaleReplica in the chain rather than resurrect the
// deleted id.
func TestStaleReplicaNeverServesResurrectedIds(t *testing.T) {
	const n, dim, k = 300, 16, 6
	w := newWorld(t, n, dim)
	coord, faults := replicatedCoordinator(t, w, 2, 2, Options{})

	// Replica 1 of stripe 0 misses the delete of gid 0.
	faults[0][1].Set("delete", FaultSpec{ErrRate: 1})
	if err := coord.Delete(0); !errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("delete err = %v, want degraded write", err)
	}
	faults[0][1].Set("delete", FaultSpec{})

	// Then the replica that DID apply it dies: the stripe has only the
	// stale replica left.
	faults[0][0].Kill()

	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n)
	if _, err := coord.Search(tok, k, opt); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("search err = %v, want chain containing ErrStaleReplica", err)
	}
}

// gatedShard holds its first Delete until a second Delete has returned from
// it, or until a timeout: the interleaving two unserialized deletes of one
// id fall into when the first stalls on its second replica.
type gatedShard struct {
	Shard
	entered chan struct{} // closed when the first Delete reaches the gate
	passed  chan struct{} // closed when the second Delete has returned
	calls   atomic.Int32
}

func (g *gatedShard) Delete(local int) error {
	switch g.calls.Add(1) {
	case 1:
		close(g.entered)
		select {
		case <-g.passed:
		case <-time.After(300 * time.Millisecond):
		}
	case 2:
		defer close(g.passed)
	}
	return g.Shard.Delete(local)
}

// TestConcurrentDeletesOfOneID: two deletes of one global id on an RF=2
// stripe serialize on the coordinator. Unserialized they interleave as
// A→r0 ok, B→r0 already deleted, B→r1 ok, A→r1 already deleted: each sees
// one applying replica, each advances the stripe's epoch floor, and the
// floor ends two ahead of replicas that moved once, so every later read of
// the stripe fails as stale. Serialized, one delete succeeds, the other
// fails on every replica, and reads succeed.
func TestConcurrentDeletesOfOneID(t *testing.T) {
	const n, dim, k = 300, 16, 5
	w := newWorld(t, n, dim)
	sets := make([][]Shard, 2)
	for r := 0; r < 2; r++ {
		parts, err := flushed(t, w.server).Split(2, index.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range parts {
			srv, err := core.NewServer(p)
			if err != nil {
				t.Fatal(err)
			}
			sets[s] = append(sets[s], Local{Srv: srv})
		}
	}
	// Global id 0 is local id 0 of stripe 0; its replica 1 is gated.
	gate := &gatedShard{Shard: sets[0][1], entered: make(chan struct{}), passed: make(chan struct{})}
	sets[0][1] = gate
	coord, err := NewReplicated(sets, Options{})
	if err != nil {
		t.Fatal(err)
	}

	errA := make(chan error, 1)
	go func() { errA <- coord.Delete(0) }()
	<-gate.entered
	errB := coord.Delete(0)
	if a := <-errA; (a == nil) == (errB == nil) {
		t.Fatalf("deletes of one id returned %v and %v, want exactly one success", a, errB)
	}
	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	ids, err := coord.Search(tok, k, fullRecall(n))
	if err != nil {
		t.Fatalf("search after the deletes: %v", err)
	}
	for _, id := range ids {
		if id == 0 {
			t.Fatal("deleted id 0 returned")
		}
	}
}

// TestConstructionToleratesDeadReplica pins the wiring path the CLI
// exercises: a coordinator built while one replica of a stripe is already
// down must come up and serve through the survivors (the dead replica's
// breaker starts tripped), and a stripe with no reachable replica at all
// must refuse to wire.
func TestConstructionToleratesDeadReplica(t *testing.T) {
	const n, dim, k = 300, 16, 6
	w := newWorld(t, n, dim)
	sets := make([][]Shard, 2)
	faults := make([][]*Faulty, 2)
	for s := range sets {
		sets[s] = make([]Shard, 2)
		faults[s] = make([]*Faulty, 2)
	}
	for r := 0; r < 2; r++ {
		parts, err := flushed(t, w.server).Split(2, index.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range parts {
			srv, err := core.NewServer(p)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFaulty(Local{Srv: srv}, uint64(300+10*s+r))
			sets[s][r] = f
			faults[s][r] = f
		}
	}
	// Replica 0 of every stripe is dead BEFORE the coordinator is wired.
	for s := range faults {
		faults[s][0].Kill()
	}
	coord, err := newReplicated(sets, Options{}, fastBreaker)
	if err != nil {
		t.Fatalf("construction with dead replicas failed: %v", err)
	}
	if coord.Len() != n {
		t.Fatalf("Len = %d, want %d", coord.Len(), n)
	}
	for s := range faults {
		if st := healthOf(coord, s, 0); st != breakerOpen {
			t.Fatalf("stripe %d: dead replica's breaker = %v at construction, want open", s, st)
		}
	}
	assertConformance(t, w, coord, k, "wired with replica 0 of every stripe dead")

	// The dead replicas return: probes re-admit them, exactly as if they
	// had died after construction.
	for s := range faults {
		faults[s][0].Revive()
	}
	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := fullRecall(n)
	deadline := time.Now().Add(5 * time.Second)
	for healthOf(coord, 0, 0) != BreakerClosed || healthOf(coord, 1, 0) != BreakerClosed {
		if _, err := coord.Search(tok, k, opt); err != nil {
			t.Fatalf("search during recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed: %+v", coord.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A stripe with every replica dead stays a construction error.
	faults[1][0].Kill()
	faults[1][1].Kill()
	var se *ShardError
	if _, err := NewReplicated(sets, Options{}); !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("all-replicas-dead construction err = %v, want *ShardError naming stripe 1", err)
	}
}
