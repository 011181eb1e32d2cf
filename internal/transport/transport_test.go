package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/frame"
	"ppanns/internal/index"
	"ppanns/internal/rng"
)

// startWorld spins up a server on a loopback listener and returns the
// pieces a client needs.
func startWorld(t *testing.T) (*core.DataOwner, *core.User, *dataset.Data, string) {
	t.Helper()
	owner, user, d, srv := testWorld(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, srv)
	return owner, user, d, l.Addr().String()
}

// testWorld builds the standard test world: a server over 600 deep-like
// vectors, the owner and a user of its key, and the data.
func testWorld(t *testing.T) (*core.DataOwner, *core.User, *dataset.Data, *core.Server) {
	t.Helper()
	d := dataset.DeepLike(600, 10, 5)
	owner, err := core.NewDataOwner(core.Params{Dim: d.Dim, Beta: 0.05, IndexOptions: index.Options{M: 12, EfConstruction: 100}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(d.Train)
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
	return owner, user, d, srv
}

func TestSearchOverTCP(t *testing.T) {
	_, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	gt := d.GroundTruth(5)
	var recall float64
	for i, q := range d.Queries {
		tok, err := user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := client.Search(tok, 5, core.SearchOptions{KPrime: 40})
		if err != nil {
			t.Fatal(err)
		}
		recall += dataset.Recall(ids, gt[i])
	}
	recall /= float64(len(d.Queries))
	if recall < 0.8 {
		t.Fatalf("recall over TCP = %.3f", recall)
	}
}

func TestInsertDeleteLenOverTCP(t *testing.T) {
	owner, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	n, err := client.Len()
	if err != nil || n != 600 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	payload, err := owner.EncryptVector(d.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Insert(payload)
	if err != nil || id != 600 {
		t.Fatalf("Insert = %d, %v", id, err)
	}
	if err := client.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(id); err == nil {
		t.Fatal("expected error for double delete")
	}
	// Search still works after churn.
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Search(tok, 5, core.SearchOptions{KPrime: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	_, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Search(tok, 0, core.SearchOptions{}); err == nil {
		t.Fatal("expected error for k=0 to propagate")
	}
	if _, err := client.Search(nil, 5, core.SearchOptions{}); err == nil {
		t.Fatal("expected error for nil token")
	}
	// Refine mode 1 is unassigned: an error, and the connection survives.
	if _, err := client.Search(tok, 5, core.SearchOptions{Refine: core.RefineMode(1)}); err == nil ||
		!strings.Contains(err.Error(), "unknown refine mode") {
		t.Fatalf("refine mode 1 answered with %v", err)
	}
	if client.Broken() != nil {
		t.Fatalf("an unknown refine mode poisoned the client: %v", client.Broken())
	}
	if _, err := client.Insert(nil); err == nil {
		t.Fatal("expected error for nil payload")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, user, d, addr := startWorld(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 5; i++ {
				tok, err := user.Query(d.Queries[i])
				if err != nil {
					errs <- err
					return
				}
				if _, err := client.Search(tok, 3, core.SearchOptions{KPrime: 12}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestInfoOverTCP(t *testing.T) {
	_, _, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "hnsw" {
		t.Fatalf("Backend = %q, want hnsw", info.Backend)
	}
	if info.N != 600 || info.Dim != d.Dim {
		t.Fatalf("N/Dim = %d/%d, want 600/%d", info.N, info.Dim, d.Dim)
	}
	if info.Memory.N != 600 || info.Memory.Live != 600 || info.Memory.SAP <= 0 || info.Memory.DCE <= 0 {
		t.Fatalf("implausible memory breakdown: %+v", info.Memory)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("expected dial error, got %v", err)
	}
}

func queryTokens(t *testing.T, user *core.User, d *dataset.Data, n int) []*core.QueryToken {
	t.Helper()
	toks := make([]*core.QueryToken, n)
	for i := range toks {
		tok, err := user.Query(d.Queries[i%len(d.Queries)])
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
	}
	return toks
}

// TestClientPoisonedAfterStreamError: after a garbled response — bytes
// that are no frame of this generation — the client must never read that
// stream again: the connection is poisoned, and the next call dials a
// fresh one instead of pairing requests with stale or misaligned
// responses.
func TestClientPoisonedAfterStreamError(t *testing.T) {
	var accepted atomic.Int32
	addr := fakeServer(t, func(conn net.Conn) {
		// Read the request bytes, answer with garbage, keep the conn open:
		// a crashed or misbehaving server mid-stream.
		accepted.Add(1)
		conn.Read(make([]byte, 4096))
		conn.Write([]byte("this is not a frame"))
		io.Copy(io.Discard, conn)
	})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Len(); err == nil {
		t.Fatal("expected stream error from garbage response")
	}
	if client.Broken() == nil {
		t.Fatal("client did not record the stream error")
	}
	// The next call redials: it meets the garbage again on a second
	// connection, fails the same way, and fails fast.
	start := time.Now()
	if _, err := client.Len(); err == nil || errors.Is(err, ErrClientBroken) {
		t.Fatalf("err = %v, want the fresh connection's stream error", err)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("the server saw %d connections, want 2: one per call", n)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("redialed call took %v to fail, want fast failure", elapsed)
	}
}

// TestApplicationErrorsDoNotPoison pins the poisoning boundary: an error
// the server answers inside the protocol leaves the stream healthy.
func TestApplicationErrorsDoNotPoison(t *testing.T) {
	_, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Search(tok, 0, core.SearchOptions{}); err == nil {
		t.Fatal("expected application error for k=0")
	}
	if client.Broken() != nil {
		t.Fatalf("application error poisoned the client: %v", client.Broken())
	}
	if _, err := client.Search(tok, 5, core.SearchOptions{KPrime: 40}); err != nil {
		t.Fatalf("client unusable after application error: %v", err)
	}
}

// flakyListener injects transient Accept failures before delegating, the
// ECONNABORTED shape that used to kill Serve permanently.
type flakyListener struct {
	net.Listener
	failures atomic.Int64 // remaining injected failures
}

type tempError struct{}

func (tempError) Error() string   { return "accept: connection aborted (injected)" }
func (tempError) Timeout() bool   { return false }
func (tempError) Temporary() bool { return true }

func (fl *flakyListener) Accept() (net.Conn, error) {
	if fl.failures.Add(-1) >= 0 {
		return nil, tempError{}
	}
	return fl.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors is the regression test for the
// accept-loop-death bug: transient Accept errors must not take the server
// down; closing the listener must still end Serve cleanly.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	d := dataset.DeepLike(300, 3, 5)
	owner, err := core.NewDataOwner(core.Params{Dim: d.Dim, Beta: 0.05, IndexOptions: index.Options{M: 12, EfConstruction: 100}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(d.Train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: l}
	fl.failures.Store(3)

	done := make(chan error, 1)
	go func() { done <- Serve(fl, srv) }()

	// The loop must ride out the injected failures and still accept.
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n, err := client.Len(); err != nil || n != 300 {
		t.Fatalf("Len after transient accept errors = %d, %v", n, err)
	}
	if fl.failures.Load() >= 0 {
		t.Fatal("listener never injected its failures")
	}

	l.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on listener close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener closed")
	}
}

// TestSearchShardOverTCP exercises the Merge flag end to end: ids match a
// plain Search and the merge material arrives well-formed.
func TestSearchShardOverTCP(t *testing.T) {
	owner, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := core.SearchOptions{KPrime: 40}
	want, err := client.Search(tok, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.SearchShard(tok, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != len(want) {
		t.Fatalf("SearchShard returned %d ids, Search %d", len(res.IDs), len(want))
	}
	for i := range want {
		if res.IDs[i] != want[i] {
			t.Fatalf("rank %d: SearchShard id %d, Search id %d", i, res.IDs[i], want[i])
		}
	}
	if len(res.Recs) != len(res.IDs) {
		t.Fatalf("merge material malformed: %d recs for %d ids", len(res.Recs), len(res.IDs))
	}
	ctDim := owner.UserKey().DCE.CiphertextDim()
	for i, rec := range res.Recs {
		if len(rec) != 4*ctDim {
			t.Fatalf("rec %d has %d floats, want %d", i, len(rec), 4*ctDim)
		}
	}
}

// TestPipelinedConcurrentCalls exercises protocol v2's whole point: many
// goroutines share one connection, their requests pipeline, and the demux
// routes every (possibly out-of-order) response to the right caller — the
// answers must match a sequential baseline exactly.
func TestPipelinedConcurrentCalls(t *testing.T) {
	_, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	toks := queryTokens(t, user, d, 8)
	opt := core.SearchOptions{KPrime: 40}
	want := make([][]int, len(toks))
	for i, tok := range toks {
		if want[i], err = client.Search(tok, 5, opt); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				qi := (w + rep) % len(toks)
				ids, err := client.Search(toks[qi], 5, opt)
				if err != nil {
					errs <- err
					return
				}
				for i := range ids {
					if ids[i] != want[qi][i] {
						errs <- fmt.Errorf("worker %d query %d rank %d: id %d, want %d (response misrouted?)", w, qi, i, ids[i], want[qi][i])
						return
					}
				}
				if n, err := client.Len(); err != nil || n != 600 {
					errs <- fmt.Errorf("worker %d: Len = %d, %v", w, n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if client.Broken() != nil {
		t.Fatalf("pipelined load poisoned the client: %v", client.Broken())
	}
}

// rawFrame builds one frame of any generation, as a peer other than
// Client would.
func rawFrame(proto, op byte, seq uint64, payload []byte) []byte {
	b, err := frame.AppendEnvelope(nil, proto, op, seq, func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		panic(err)
	}
	return b
}

// readRawFrame reads the one frame of this generation the peer has sent
// on conn.
func readRawFrame(t *testing.T, conn net.Conn) (op byte, seq uint64, payload []byte) {
	t.Helper()
	op, seq, payload, err := frame.NewEnvelopeReader(conn, protoVersion).Next()
	if err != nil {
		t.Fatalf("reading a frame: %v", err)
	}
	return op, seq, payload
}

// readCount reads the first count of a len answer.
func readCount(p []byte) int { return frame.NewReader(p).Int() }

// errorText decodes an opError payload.
func errorText(t *testing.T, payload []byte) string {
	t.Helper()
	r := frame.NewReader(payload)
	msg := r.String()
	if err := r.Done(); err != nil {
		t.Fatalf("error payload: %v", err)
	}
	return msg
}

// fakeServer hands every connection a fresh listener accepts to serve, on
// its own goroutine, so a client that redials meets the same fake; it
// returns the listener's address.
func fakeServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return l.Addr().String()
}

// TestOtherGenerationRefused: there is one protocol generation and nothing
// to negotiate. A peer whose frames stamp generation 9 (the last one before
// this build's, whose search request carried a Ratio_k word), 8 (which
// framed without a checksum) or 0 is refused on its first call, as client
// and as server, with an error naming both generations; nothing is
// executed or delivered across the mismatch; and a same-generation client
// of the same listener never notices.
func TestOtherGenerationRefused(t *testing.T) {
	owner, _, d, addr := startWorld(t)
	payload, err := owner.EncryptVector(d.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	insert := core.AppendInsert(nil, payload)
	for _, stamp := range []byte{9, 8, 0} {
		names := []string{fmt.Sprintf("generation %d", stamp), fmt.Sprintf("generation %d", protoVersion)}

		// As a client of the real server: an insert that must not happen.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(rawFrame(stamp, opInsert, 7, insert)); err != nil {
			t.Fatal(err)
		}
		op, seq, p := readRawFrame(t, conn)
		msg := errorText(t, p)
		if op != opError || seq != 7 || !strings.Contains(msg, names[0]) || !strings.Contains(msg, names[1]) {
			t.Fatalf("stamp %d as client: answered op %d seq %d %q, want an error naming both generations", stamp, op, seq, msg)
		}
		conn.Close()
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := client.Len(); err != nil || n != 600 {
			t.Fatalf("stamp %d: same-generation client sees Len = %d, %v — the refused insert ran, or the listener suffered", stamp, n, err)
		}
		client.Close()

		// As the server: it answers everything, stamped its own way.
		faddr := fakeServer(t, func(conn net.Conn) {
			fr := frame.NewEnvelopeReader(conn, protoVersion)
			for {
				_, seq, _, err := fr.Next()
				if err != nil {
					return
				}
				if _, err := conn.Write(rawFrame(stamp, opLen, seq, frame.AppendInt(frame.AppendInt(nil, 42), 42))); err != nil {
					return
				}
			}
		})
		client, err = Dial(faddr)
		if err != nil {
			t.Fatal(err)
		}
		n, err := client.Len()
		if n != 0 || !errors.Is(err, ErrProtoMismatch) || !strings.Contains(err.Error(), names[0]) || !strings.Contains(err.Error(), names[1]) {
			t.Fatalf("stamp %d as server: Len = %d, %v, want ErrProtoMismatch naming both generations", stamp, n, err)
		}
		if _, err := client.Len(); !errors.Is(err, ErrProtoMismatch) || !strings.Contains(err.Error(), names[0]) {
			t.Fatalf("stamp %d as server: second call err = %v, want a redial refused again", stamp, err)
		}
		client.Close()
	}
}

// gobInsert, gobRequest and gobResponse are the envelopes of the gob
// protocol generations before 7, as those clients and servers encoded
// them.
type gobInsert struct {
	SAP            []float64
	P1, P2, P3, P4 []float64
}

type gobRequest struct {
	Proto   int
	Seq     uint64
	Op      string
	K       int
	Payload *gobInsert
	ID      int
}

type gobResponse struct {
	Proto int
	Seq   uint64
	IDs   []int
	ID    int
	N     int
	Live  int
	Err   string
}

// TestGobPeerRefused: a peer of a gob generation is refused in both
// directions and nothing it sends executes. Its bytes never form a frame
// of this generation, so the refusal is a header refusal: the server says
// why and closes the connection; the client poisons its connection.
func TestGobPeerRefused(t *testing.T) {
	owner, _, d, addr := startWorld(t)
	p, err := owner.EncryptVector(d.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := len(p.DCE) / 4
	ins := &gobInsert{SAP: p.SAP, P1: p.DCE[:c], P2: p.DCE[c : 2*c], P3: p.DCE[2*c : 3*c], P4: p.DCE[3*c:]}
	if err := gob.NewEncoder(conn).Encode(&gobRequest{Proto: 6, Seq: 1, Op: "insert", Payload: ins}); err != nil {
		t.Fatal(err)
	}
	op, _, payload := readRawFrame(t, conn)
	if msg := errorText(t, payload); op != opError ||
		!strings.Contains(msg, fmt.Sprintf("generation %d", protoVersion)) || !strings.Contains(msg, "nothing was executed") {
		t.Fatalf("gob client answered op %d %q, want a refusal naming generation %d", op, msg, protoVersion)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server kept the gob peer's connection open")
	}
	conn.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n, err := client.Len(); err != nil || n != 600 {
		t.Fatalf("Len after the gob insert = %d, %v: it must not have run", n, err)
	}

	// As the server: a gob server reads a request the way it always did
	// and answers in gob.
	faddr := fakeServer(t, func(conn net.Conn) {
		var req gobRequest
		gob.NewDecoder(conn).Decode(&req) // fails on a frame: it answers anyway
		gob.NewEncoder(conn).Encode(&gobResponse{Proto: 6, Seq: 1, N: 42, Live: 42})
		io.Copy(io.Discard, conn)
	})
	gc, err := Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	if n, err := gc.Len(); err == nil || n == 42 {
		t.Fatalf("Len from a gob server = %d, %v, want a refusal", n, err)
	}
	if gc.Broken() == nil {
		t.Fatal("a gob answer left the client unpoisoned")
	}
}

// TestMalformedPayloadFailsOnlyItsCall: frames are self-delimiting, so a
// payload that does not decode inside an intact frame fails its own call
// and the stream stays usable, on both sides.
func TestMalformedPayloadFailsOnlyItsCall(t *testing.T) {
	_, user, d, addr := startWorld(t)
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Server side: a search whose token is cut short, then a len.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	search := core.AppendQuery(nil, tok, 5, core.SearchOptions{})
	if _, err := conn.Write(rawFrame(protoVersion, opSearch, 1, search[:len(search)-3])); err != nil {
		t.Fatal(err)
	}
	if op, seq, p := readRawFrame(t, conn); op != opError || seq != 1 || !strings.Contains(errorText(t, p), "malformed search request") {
		t.Fatalf("cut-short search answered op %d seq %d %q", op, seq, p)
	}
	if _, err := conn.Write(rawFrame(protoVersion, opLen, 2, nil)); err != nil {
		t.Fatal(err)
	}
	if op, seq, p := readRawFrame(t, conn); op != opLen || seq != 2 || readCount(p) != 600 {
		t.Fatalf("len after the malformed search answered op %d seq %d %v", op, seq, p)
	}

	// Client side: the first answer's payload is three bytes short of a
	// len answer, the second is whole.
	calls := 0
	faddr := fakeServer(t, func(conn net.Conn) {
		fr := frame.NewEnvelopeReader(conn, protoVersion)
		for {
			_, seq, _, err := fr.Next()
			if err != nil {
				return
			}
			calls++
			body := frame.AppendInt(frame.AppendInt(nil, 42), 42)
			if calls == 1 {
				body = body[:len(body)-3]
			}
			if _, err := conn.Write(rawFrame(protoVersion, opLen, seq, body)); err != nil {
				return
			}
		}
	})
	client, err := Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Len(); err == nil || !strings.Contains(err.Error(), "malformed len response") {
		t.Fatalf("a cut-short answer gave %v", err)
	}
	if client.Broken() != nil {
		t.Fatalf("a malformed payload poisoned the client: %v", client.Broken())
	}
	if n, err := client.Len(); err != nil || n != 42 {
		t.Fatalf("the next call = %d, %v, want 42", n, err)
	}
}

// TestOversizedFrameRefused: a header claiming more than frame.MaxLen is
// refused before anything is allocated — by the server, which says why
// and closes, and by the client, which poisons its connection.
func TestOversizedFrameRefused(t *testing.T) {
	huge := append(frame.AppendU32(nil, frame.MaxLen+1), rawFrame(protoVersion, opLen, 1, nil)[4:]...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := frame.NewEnvelopeReader(bytes.NewReader(huge), protoVersion).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, frame.ErrEnvelope) {
		t.Fatalf("reading an oversized header: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing an oversized header allocated %d bytes", got)
	}

	_, _, _, addr := startWorld(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	if op, _, p := readRawFrame(t, conn); op != opError || !strings.Contains(errorText(t, p), fmt.Sprintf("%d-byte limit", frame.MaxLen)) {
		t.Fatalf("oversized request answered op %d %q", op, p)
	}

	faddr := fakeServer(t, func(conn net.Conn) {
		frame.NewEnvelopeReader(conn, protoVersion).Next()
		conn.Write(huge)
		io.Copy(io.Discard, conn)
	})
	client, err := Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Len(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte limit", frame.MaxLen)) {
		t.Fatalf("oversized answer gave %v", err)
	}
	if client.Broken() == nil {
		t.Fatal("an oversized answer left the client unpoisoned")
	}
}

// TestFlippedBitRefused: every frame carries a CRC, so one flipped payload
// bit is refused in both directions like a frame of another generation —
// the server names the checksum, executes nothing and closes; the client
// poisons the connection and delivers nothing, and its next call redials.
func TestFlippedBitRefused(t *testing.T) {
	owner, _, d, addr := startWorld(t)
	payload, err := owner.EncryptVector(d.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := func(b []byte) []byte {
		b[len(b)-5] ^= 0x10 // the payload's last byte
		return b
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(flipped(rawFrame(protoVersion, opInsert, 7, core.AppendInsert(nil, payload)))); err != nil {
		t.Fatal(err)
	}
	if op, seq, p := readRawFrame(t, conn); op != opError || seq != 7 ||
		!strings.Contains(errorText(t, p), "checksum") || !strings.Contains(errorText(t, p), "nothing was executed") {
		t.Fatalf("a flipped insert answered op %d seq %d %q, want a checksum refusal", op, seq, p)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server kept the connection open after a checksum failure")
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n, err := client.Len(); err != nil || n != 600 {
		t.Fatalf("Len after the flipped insert = %d, %v: it must not have run", n, err)
	}

	faddr := fakeServer(t, func(conn net.Conn) {
		fr := frame.NewEnvelopeReader(conn, protoVersion)
		for {
			_, seq, _, err := fr.Next()
			if err != nil {
				return
			}
			if _, err := conn.Write(flipped(rawFrame(protoVersion, opLen, seq, frame.AppendInt(frame.AppendInt(nil, 42), 42)))); err != nil {
				return
			}
		}
	})
	fc, err := Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if n, err := fc.Len(); n != 0 || err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a flipped answer gave Len = %d, %v, want a checksum refusal", n, err)
	}
	if _, err := fc.Len(); !errors.Is(err, frame.ErrEnvelope) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("second call after a flipped answer: %v, want a redial refused again", err)
	}
}

// TestMergeAnswerOverLimitRefused: a search-shard whose answer could not
// fit in one frame is refused with an error naming the limit before the
// search runs — a nil token, which the search would refuse, shows the
// order — and the client stays healthy. At d=256 a result's DCE record is
// 16 896 bytes, so 4 000 of them are just past frame.MaxLen.
func TestMergeAnswerOverLimitRefused(t *testing.T) {
	const n, dim = 4000, 256
	r := rng.NewSeeded(7)
	data := make([][]float64, n)
	for i := range data {
		data[i] = rng.Gaussian(r, nil, dim)
	}
	owner, err := core.NewDataOwner(core.Params{Dim: dim, Beta: 1, Seed: 7, Index: "ivf"})
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
	t.Cleanup(func() { l.Close() })
	go Serve(l, srv)
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tok, err := user.Query(data[0])
	if err != nil {
		t.Fatal(err)
	}
	limit := fmt.Sprintf("%d-byte frame limit", frame.MaxLen)
	for _, tk := range []*core.QueryToken{tok, nil} {
		if _, err := client.SearchShard(tk, n, core.SearchOptions{}); err == nil || !strings.Contains(err.Error(), limit) {
			t.Fatalf("a merge answer of every record: %v, want an error naming the frame limit", err)
		}
	}
	if res, err := client.SearchShard(tok, 10, core.SearchOptions{}); err != nil || len(res.IDs) != 10 {
		t.Fatalf("k=10 merge search: %d ids, %v", len(res.IDs), err)
	}
	if client.Broken() != nil {
		t.Fatalf("a refused merge search poisoned the client: %v", client.Broken())
	}
}

// TestRetiredSearchBatchOpRefused: an op this generation does not assign
// — a batch search, as earlier builds had — is answered with an
// unknown-op error, and the connection keeps serving the next request.
func TestRetiredSearchBatchOpRefused(t *testing.T) {
	_, user, d, addr := startWorld(t)
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const opSearchBatch = 7
	batch := core.AppendQuery(core.AppendQuery(nil, tok, 5, core.SearchOptions{KPrime: 40}), tok, 5, core.SearchOptions{KPrime: 40})
	if _, err := conn.Write(rawFrame(protoVersion, opSearchBatch, 1, batch)); err != nil {
		t.Fatal(err)
	}
	if op, seq, p := readRawFrame(t, conn); op != opError || seq != 1 || errorText(t, p) != "transport: unknown op 7" {
		t.Fatalf("batch search answered op %d seq %d %q, want seq 1 and an unknown-op error", op, seq, p)
	}
	if _, err := conn.Write(rawFrame(protoVersion, opLen, 2, nil)); err != nil {
		t.Fatal(err)
	}
	if op, seq, p := readRawFrame(t, conn); op != opLen || seq != 2 || readCount(p) != 600 {
		t.Fatalf("len after the refused op answered op %d seq %d %v, want seq 2 and N 600", op, seq, p)
	}
}

// TestStrayFrameDropped: seq 0 is never assigned, so a response carrying it
// has no waiter; the demux drops it and still delivers the real answer that
// follows on the same stream.
func TestStrayFrameDropped(t *testing.T) {
	counts := func(n int) []byte { return frame.AppendInt(frame.AppendInt(nil, n), n) }
	addr := fakeServer(t, func(conn net.Conn) {
		fr := frame.NewEnvelopeReader(conn, protoVersion)
		for {
			_, seq, _, err := fr.Next()
			if err != nil {
				return
			}
			if _, err := conn.Write(append(rawFrame(protoVersion, opLen, 0, counts(13)), rawFrame(protoVersion, opLen, seq, counts(42))...)); err != nil {
				return
			}
		}
	})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		if n, err := client.Len(); err != nil || n != 42 {
			t.Fatalf("call %d: Len = %d, %v, want the seq-matched 42", i, n, err)
		}
	}
	if client.Broken() != nil {
		t.Fatalf("a stray frame poisoned the client: %v", client.Broken())
	}
}

// TestCallTimeoutOnStalledServer: a server that accepts and then never
// answers must fail the call within the configured deadline and poison
// the connection — not hang it forever. The next call redials and meets
// the same deadline.
func TestCallTimeoutOnStalledServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1<<16)
		conn.Read(buf) // swallow the request, answer nothing
		<-stop
	}()

	client, err := DialWith(l.Addr().String(), DialOptions{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	if _, err := client.Len(); err == nil {
		t.Fatal("expected timeout error from stalled server")
	} else if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out call took %v", elapsed)
	}
	if client.Broken() == nil {
		t.Fatal("timeout did not poison the connection")
	}
	start = time.Now()
	if _, err := client.Len(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("call after timeout: err = %v, want a redial that times out again", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("redialed call took %v", elapsed)
	}
}

// TestLiveCountsOverTCP covers the tombstone-count satellite: Live and
// Info must separate live records from tombstones while Len keeps
// counting both.
func TestLiveCountsOverTCP(t *testing.T) {
	owner, _, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload, err := owner.EncryptVector(d.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Insert(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(3); err != nil {
		t.Fatal(err)
	}

	n, err := client.Len()
	if err != nil || n != 601 {
		t.Fatalf("Len = %d, %v, want 601", n, err)
	}
	live, err := client.Live()
	if err != nil || live != 599 {
		t.Fatalf("Live = %d, %v, want 599", live, err)
	}
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 601 || info.Live != 599 {
		t.Fatalf("Info counts N=%d Live=%d, want 601/599", info.N, info.Live)
	}
}

// TestServeOutlivesNoConnection: when Serve returns, the connections it
// accepted are closed and their goroutines gone — a caller that waits for
// it (and then reads the heap, as the benchmark does between set-ups) does
// not race connection goroutines still holding the server.
func TestServeOutlivesNoConnection(t *testing.T) {
	d := dataset.DeepLike(200, 1, 9)
	owner, err := core.NewDataOwner(core.Params{Dim: d.Dim, Beta: 0.5, Seed: 9, Index: "ivf"})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(d.Train)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(l, srv)
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Len(); err != nil { // the connection is accepted and served
		t.Fatal(err)
	}
	l.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener closed")
	}
	if _, err := client.Len(); err == nil {
		t.Fatal("a connection outlived the Serve call that accepted it")
	}
}

// Broken returns the stream error that poisoned the current connection,
// which the next call replaces, or nil while it is healthy or undialed.
func (c *Client) Broken() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return nil
	}
	return c.cur.err()
}
