package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppanns/internal/core"
)

// withHandleHook installs a test hook into the server's request handler
// and removes it when the test ends. Hooks let these tests manufacture
// handler panics and stalls that no well-formed request can cause.
func withHandleHook(t *testing.T, h func(*request)) {
	t.Helper()
	testHandleHook.Store(&h)
	t.Cleanup(func() { testHandleHook.Store(nil) })
}

// TestHandlerPanicRecovered pins the blast radius of a handler panic: the
// panicking request gets an error response, and the connection — with
// every other request multiplexed on it — survives.
func TestHandlerPanicRecovered(t *testing.T) {
	_, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	withHandleHook(t, func(req *request) {
		if req.op == opSearch || req.op == opSearchShard {
			panic("injected handler panic")
		}
	})
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Search(tok, 5, core.SearchOptions{})
	if err == nil {
		t.Fatal("search against a panicking handler returned no error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panic surfaced as %v, want an internal-error response", err)
	}

	// The connection must still be healthy: ops the hook ignores work, and
	// once the hook is gone the same search succeeds on the same client.
	if n, err := client.Len(); err != nil || n != 600 {
		t.Fatalf("Len after handler panic = %d, %v; the connection did not survive", n, err)
	}
	testHandleHook.Store(nil)
	ids, err := client.Search(tok, 5, core.SearchOptions{})
	if err != nil || len(ids) != 5 {
		t.Fatalf("search after hook removal = %v, %v", ids, err)
	}
	if client.Broken() != nil {
		t.Fatalf("client poisoned by a recovered panic: %v", client.Broken())
	}
}

// TestCancelAbandonsCall pins per-request cancellation: a caller that
// gives up on a stalled request gets ErrAbandoned promptly, and the
// multiplexed stream keeps working for everyone else — the straggler's
// eventual response is dropped by seq, not misdelivered.
func TestCancelAbandonsCall(t *testing.T) {
	_, user, d, addr := startWorld(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const stall = 300 * time.Millisecond
	withHandleHook(t, func(req *request) {
		if req.op == opSearch || req.op == opSearchShard {
			time.Sleep(stall)
		}
	})
	tok, err := user.Query(d.Queries[0])
	if err != nil {
		t.Fatal(err)
	}

	cancel := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, err = client.SearchShardCancel(cancel, tok, 5, core.SearchOptions{})
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("cancelled call err = %v, want ErrAbandoned", err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("cancelled call took %v, the cancel did not release the caller", elapsed)
	}

	// Other traffic on the same stream is unaffected, including after the
	// stalled handler finally responds.
	if n, err := client.Len(); err != nil || n != 600 {
		t.Fatalf("Len during abandoned call = %d, %v", n, err)
	}
	time.Sleep(stall + 50*time.Millisecond)
	if client.Broken() != nil {
		t.Fatalf("client poisoned by the straggler response: %v", client.Broken())
	}
	testHandleHook.Store(nil)
	res, err := client.SearchShardCancel(nil, tok, 5, core.SearchOptions{})
	if err != nil || len(res.IDs) != 5 {
		t.Fatalf("search after abandon = %v, %v", res.IDs, err)
	}
}

// TestCancelRaceNeverPoisons hammers the abandon/response race: cancels
// firing right around response arrival must always yield either the real
// result or ErrAbandoned, and never wedge or poison the client.
func TestCancelRaceNeverPoisons(t *testing.T) {
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

	iters := 50
	if os.Getenv("PPANNS_CHAOS") == "1" {
		iters = 500
	}
	var wg sync.WaitGroup
	for i := 0; i < iters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cancel := make(chan struct{})
			go func() {
				// Spread the cancel across the request's lifetime.
				time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
				close(cancel)
			}()
			res, err := client.SearchShardCancel(cancel, tok, 5, core.SearchOptions{})
			if err == nil {
				if len(res.IDs) != 5 {
					t.Errorf("iter %d: short result %v", i, res.IDs)
				}
			} else if !errors.Is(err, ErrAbandoned) {
				t.Errorf("iter %d: err = %v, want nil or ErrAbandoned", i, err)
			}
		}(i)
	}
	wg.Wait()
	if client.Broken() != nil {
		t.Fatalf("client poisoned by cancel races: %v", client.Broken())
	}
	if n, err := client.Len(); err != nil || n != 600 {
		t.Fatalf("Len after cancel storm = %d, %v", n, err)
	}
}

// TestClientHealsAfterOutage: a client whose server goes away and comes
// back on the same address answers again, with no redial by its caller.
// During the outage concurrent calls fail fast — none hangs, none gets
// another call's answer — and afterwards each concurrent call gets its own
// answer over the one fresh connection. A Closed client never redials.
func TestClientHealsAfterOutage(t *testing.T) {
	_, user, d, srv := testWorld(t)
	serve := func(addr string) (net.Listener, chan struct{}) {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		done := make(chan struct{})
		go func() { Serve(l, srv); close(done) }()
		return l, done
	}
	l, done := serve("127.0.0.1:0")
	addr := l.Addr().String()
	client := NewClient(addr, DialOptions{DialTimeout: 2 * time.Second})
	defer client.Close()

	// One call per k, each with its own token, and the answer each must get.
	const calls = 8
	toks := queryTokens(t, user, d, calls)
	want := make([][]int, calls)
	for i := range want {
		res, err := client.SearchShard(toks[i], i+1, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.IDs
	}
	fanOut := func() []error {
		errs := make([]error, calls)
		var wg sync.WaitGroup
		for i := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := client.SearchShard(toks[i], i+1, core.SearchOptions{})
				if err == nil && !slices.Equal(res.IDs, want[i]) {
					err = fmt.Errorf("call %d got %v, want %v", i, res.IDs, want[i])
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		return errs
	}

	// The server goes away: Serve returns once its connections are closed.
	l.Close()
	<-done
	start := time.Now()
	for i, err := range fanOut() {
		if err == nil {
			t.Fatalf("call %d answered with the server down", i)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("calls during the outage took %v, want fast failure", elapsed)
	}

	serve(addr)
	for i, err := range fanOut() {
		if err != nil {
			t.Fatalf("call %d after the server returned: %v", i, err)
		}
	}
	if client.Broken() != nil {
		t.Fatalf("healed client reports %v", client.Broken())
	}

	client.Close()
	if _, err := client.Len(); err == nil || !strings.Contains(err.Error(), "client closed") {
		t.Fatalf("call on a closed client: %v, want it refused without a redial", err)
	}
	if c, err := Dial(addr); err != nil {
		t.Fatalf("the server is up, yet: %v", err)
	} else {
		c.Close()
	}
}

// TestChaosWireRedialLoop runs a client workload against a server behind a
// hostile wire (seeded random delays and connection drops): calls may fail
// when the wire snaps, but the client redials itself, answers are never
// corrupted, and most of the workload lands.
func TestChaosWireRedialLoop(t *testing.T) {
	d := startChaosServer(t, ChaosOptions{Seed: 42, DelayRate: 0.15, Delay: 500 * time.Microsecond, DropRate: 0.04})

	iters := 40
	if os.Getenv("PPANNS_CHAOS") == "1" {
		iters = 400
	}
	client := NewClient(d.addr, DialOptions{DialTimeout: 2 * time.Second})
	defer client.Close()
	ok := 0
	for i := 0; i < iters; i++ {
		n, err := client.Len()
		if err != nil {
			continue
		}
		if n != 600 {
			t.Fatalf("iter %d: wire chaos corrupted an answer: Len = %d, want 600", i, n)
		}
		ok++
	}
	if ok < iters/2 {
		t.Fatalf("only %d/%d calls landed; the client is not recovering", ok, iters)
	}
}

type chaosWorld struct {
	addr string
}

// startChaosServer serves the standard test world behind a Chaos-wrapped
// listener.
func startChaosServer(t *testing.T, opts ChaosOptions) *chaosWorld {
	t.Helper()
	_, _, _, srv := testWorld(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(Chaos(l, opts), srv)
	return &chaosWorld{addr: l.Addr().String()}
}
