package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/index"
)

// startWorld spins up a server on a loopback listener and returns the
// pieces a client needs.
func startWorld(t *testing.T) (*core.DataOwner, *core.User, *dataset.Data, string) {
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
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, srv)
	return owner, user, d, l.Addr().String()
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
		ids, err := client.Search(tok, 5, core.SearchOptions{RatioK: 8})
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
	if _, err := client.Search(tok, 5, core.SearchOptions{RatioK: 8}); err != nil {
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
				if _, err := client.Search(tok, 3, core.SearchOptions{RatioK: 4}); err != nil {
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
	if info.Memory.N != 600 || info.Memory.SAP <= 0 || info.Memory.DCE <= 0 {
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

// TestClientPoisonedAfterStreamError is the regression test for the
// desynced-gob-stream bug: after a garbled response the client must refuse
// further calls with ErrClientBroken instead of pairing requests with
// stale or misaligned responses.
func TestClientPoisonedAfterStreamError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Read the request bytes, answer with garbage, keep the conn open:
		// a crashed or misbehaving server mid-stream.
		buf := make([]byte, 4096)
		conn.Read(buf)
		conn.Write([]byte("this is not gob"))
		time.Sleep(10 * time.Second)
		conn.Close()
	}()

	client, err := Dial(l.Addr().String())
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
	// Subsequent calls fail fast with the sentinel — no network I/O, no
	// misaligned decode.
	start := time.Now()
	if _, err := client.Len(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("err = %v, want ErrClientBroken", err)
	}
	if _, err := client.Search(nil, 1, core.SearchOptions{}); err == nil {
		t.Fatal("Search on poisoned client did not error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("poisoned client took %v to fail, want fast failure", elapsed)
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
	if _, err := client.Search(tok, 5, core.SearchOptions{RatioK: 8}); err != nil {
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
	opt := core.SearchOptions{RatioK: 8}
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
	if len(res.Recs) != len(res.IDs) || res.CtDim <= 0 {
		t.Fatalf("merge material malformed: %d recs, ctDim %d", len(res.Recs), res.CtDim)
	}
	for i, rec := range res.Recs {
		if len(rec) != 4*res.CtDim {
			t.Fatalf("rec %d has %d floats, want %d", i, len(rec), 4*res.CtDim)
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
	opt := core.SearchOptions{RatioK: 8}
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

// TestOtherGenerationRefused: there is one protocol generation and nothing
// to negotiate. A hand-rolled gob peer that stamps generation 5 (the last
// one before this build's) or none at all (every build up to PR 23) is
// refused on its first call, as client and as server, with an error naming
// both generations; nothing is executed or delivered across the mismatch;
// and a same-generation client of the same listener never notices.
func TestOtherGenerationRefused(t *testing.T) {
	owner, _, d, addr := startWorld(t)
	payload, err := owner.EncryptVector(d.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	wi := toWireInsert(payload)
	for _, stamp := range []int{5, 0} {
		names := []string{fmt.Sprintf("generation %d", stamp), fmt.Sprintf("generation %d", ProtoVersion)}

		// As a client of the real server: an insert that must not happen.
		type peerRequest struct {
			Proto   int
			Seq     uint64
			Op      string
			Payload *wireInsert
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(conn).Encode(&peerRequest{Proto: stamp, Seq: 7, Op: "insert", Payload: wi}); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if resp.Seq != 7 || resp.Proto != ProtoVersion || !strings.Contains(resp.Err, names[0]) || !strings.Contains(resp.Err, names[1]) {
			t.Fatalf("stamp %d as client: answered %+v, want an error naming both generations", stamp, resp)
		}
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := client.Len(); err != nil || n != 600 {
			t.Fatalf("stamp %d: same-generation client sees Len = %d, %v — the refused insert ran, or the listener suffered", stamp, n, err)
		}
		client.Close()

		// As the server: it answers everything, stamped its own way.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
			for {
				var req request
				if dec.Decode(&req) != nil || enc.Encode(&response{Proto: stamp, Seq: req.Seq, N: 42}) != nil {
					return
				}
			}
		}()
		client, err = Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		n, err := client.Len()
		if n != 0 || !errors.Is(err, ErrProtoMismatch) || !strings.Contains(err.Error(), names[0]) || !strings.Contains(err.Error(), names[1]) {
			t.Fatalf("stamp %d as server: Len = %d, %v, want ErrProtoMismatch naming both generations", stamp, n, err)
		}
		if _, err := client.Len(); !errors.Is(err, ErrClientBroken) || !errors.Is(err, ErrProtoMismatch) {
			t.Fatalf("stamp %d as server: second call err = %v, want a poisoned client that says why", stamp, err)
		}
		client.Close()
		l.Close()
	}
}

// TestRetiredSearchBatchOpRefused: builds before the batch API was retired
// speak the same generation but may send a "searchbatch" request — a token
// list, a Parallelism option and a merge flag. This server answers it with
// an unknown-op error, and the connection keeps serving the next request.
func TestRetiredSearchBatchOpRefused(t *testing.T) {
	_, user, d, addr := startWorld(t)
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	type peerOptions struct {
		RatioK      int
		Parallelism int
	}
	type peerRequest struct {
		Proto  int
		Seq    uint64
		Op     string
		Tokens []*wireToken
		K      int
		Opt    peerOptions
		Merge  bool
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	batch := peerRequest{Proto: ProtoVersion, Seq: 1, Op: "searchbatch", Tokens: []*wireToken{toWireToken(tok), toWireToken(tok)},
		K: 5, Opt: peerOptions{RatioK: 8, Parallelism: 4}, Merge: true}
	if err := enc.Encode(&batch); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if want := `transport: unknown op "searchbatch"`; resp.Seq != 1 || resp.Err != want || resp.IDs != nil {
		t.Fatalf("searchbatch answered %+v, want Seq 1 and error %q", resp, want)
	}
	if err := enc.Encode(&peerRequest{Proto: ProtoVersion, Seq: 2, Op: "len"}); err != nil {
		t.Fatal(err)
	}
	resp = response{}
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("connection dropped after the refused op: %v", err)
	}
	if resp.Seq != 2 || resp.Err != "" || resp.N != 600 {
		t.Fatalf("len after the refused op answered %+v, want Seq 2 and N 600", resp)
	}
}

// TestStrayFrameDropped: Seq 0 is never assigned, so a response carrying it
// has no waiter; the demux drops it and still delivers the real answer that
// follows on the same stream.
func TestStrayFrameDropped(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
		for {
			var req request
			if dec.Decode(&req) != nil ||
				enc.Encode(&response{Proto: ProtoVersion, N: 13}) != nil ||
				enc.Encode(&response{Proto: ProtoVersion, Seq: req.Seq, N: 42}) != nil {
				return
			}
		}
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		if n, err := client.Len(); err != nil || n != 42 {
			t.Fatalf("call %d: Len = %d, %v, want the Seq-matched 42", i, n, err)
		}
	}
	if client.Broken() != nil {
		t.Fatalf("a stray frame poisoned the client: %v", client.Broken())
	}
}

// TestCallTimeoutOnStalledServer covers the deadline satellite: a server
// that accepts and then never answers must fail the call within the
// configured deadline and poison the client — not hang it forever.
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
		t.Fatal("timeout did not poison the client")
	}
	if _, err := client.Len(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("call after timeout: err = %v, want ErrClientBroken", err)
	}
}

// TestReadTimeoutOnSilentServer is the stream-level flavor: with a read
// deadline configured and a call pending, prolonged silence must poison
// the stream and fail the pending call even without a per-call timeout.
func TestReadTimeoutOnSilentServer(t *testing.T) {
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
		conn.Read(buf)
		<-stop
	}()

	client, err := DialWith(l.Addr().String(), DialOptions{ReadTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	if _, err := client.Len(); err == nil {
		t.Fatal("expected read-deadline error from silent server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline expiry took %v", elapsed)
	}
	if client.Broken() == nil {
		t.Fatal("read deadline did not poison the client")
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
