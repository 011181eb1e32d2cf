// Package transport deploys the PP-ANNS roles across machines: a gob-over-
// TCP protocol carrying query tokens to the cloud server and result ids
// back — the deployment shape of the paper's Figure 1, where the only
// user↔server traffic is one encrypted token up and k ids down.
//
// # Multiplexed streams
//
// Every request carries a client-assigned id (Seq ≥ 1) which the server
// echoes on the matching response, so one connection multiplexes any number
// of concurrent calls: the client pipelines requests from many goroutines
// over a single gob stream and a demux goroutine routes each response to
// the caller waiting on its Seq, while the server dispatches every decoded
// request to its own handler goroutine (responses serialize on a write
// mutex, so frames never interleave). A slow search therefore does not
// block the queries behind it, and the scatter-gather tier keeps one
// connection per shard regardless of concurrency. A response whose Seq has
// no waiter — an abandoned call's late answer, a stray frame — is dropped.
//
// # One generation
//
// Both envelopes carry ProtoVersion on every frame and nothing is
// negotiated: a server answers a request of another generation with an
// error naming both and executes nothing; a client that decodes a response
// of another generation poisons itself with ErrProtoMismatch. Any other
// build — up to PR 23 they stamped nothing — is refused on its first call.
//
// Streams are unframed gob: any stream-level failure (including deadline
// expiries) poisons the client and fails every pending and future call
// with ErrClientBroken; application errors inside intact frames do not.
// A search op can return cross-shard merge material for the scatter-gather
// tier (internal/shard).
package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dce"
)

// ErrClientBroken marks a Client whose gob stream was poisoned by an
// earlier failure (encode/decode error, expired deadline, or Close). The
// stream carries no framing, so once an error interrupts it mid-message
// there is no way to resynchronize; instead of silently pairing requests
// with stale responses, every later call fails fast wrapping this error.
// Dial a fresh Client to recover.
var ErrClientBroken = errors.New("transport: connection poisoned by an earlier stream error")

// ErrProtoMismatch is the stream error of a Client whose server answered in
// another protocol generation. Redialing the same server cannot help.
var ErrProtoMismatch = errors.New("transport: protocol generation mismatch")

// wireToken is the on-the-wire query token: the SAP ciphertext and the DCE
// trapdoor vector.
type wireToken struct {
	SAP []float64
	Q   []float64
}

func toWireToken(tok *core.QueryToken) *wireToken {
	if tok == nil {
		return nil
	}
	wt := &wireToken{SAP: tok.SAP}
	if tok.Trapdoor != nil {
		wt.Q = tok.Trapdoor.Q
	}
	return wt
}

func (wt *wireToken) token() *core.QueryToken {
	if wt == nil {
		return nil
	}
	tok := &core.QueryToken{SAP: wt.SAP}
	if wt.Q != nil {
		tok.Trapdoor = &dce.Trapdoor{Q: wt.Q}
	}
	return tok
}

// wireInsert is the on-the-wire insert payload.
type wireInsert struct {
	SAP            []float64
	P1, P2, P3, P4 []float64
}

func toWireInsert(p *core.InsertPayload) *wireInsert {
	if p == nil {
		return nil
	}
	wi := &wireInsert{SAP: p.SAP}
	if p.DCE != nil {
		wi.P1, wi.P2, wi.P3, wi.P4 = p.DCE.P1, p.DCE.P2, p.DCE.P3, p.DCE.P4
	}
	return wi
}

func (wi *wireInsert) payload() *core.InsertPayload {
	if wi == nil {
		return nil
	}
	p := &core.InsertPayload{SAP: wi.SAP}
	if wi.P1 != nil {
		p.DCE = &dce.Ciphertext{P1: wi.P1, P2: wi.P2, P3: wi.P3, P4: wi.P4}
	}
	return p
}

// ProtoVersion is the one protocol generation this package speaks, stamped
// on every request and response. A peer that stamps nothing reads as 0.
const ProtoVersion = 6

// Info describes the server a client is connected to: which filter-index
// backend it runs and its record counts — N includes tombstones, Live does
// not. Every server takes inserts and deletes, whatever the backend.
type Info struct {
	Backend string
	N       int
	Live    int
	Dim     int
	// Epoch is the server's snapshot publication count at the time of the
	// call. Replica sets seed their read-your-writes floor from it.
	Epoch uint64
	// Delta is the server's delta-tier record count and Tombstones its
	// pending (uncompacted) tombstone count — the write-path bloat an
	// operator watches to judge compaction health.
	Delta      int
	Tombstones int
	// Memory is the server's per-tier memory breakdown in bytes per point.
	Memory core.MemoryStats
	// WAL summarizes the server's write-ahead log; nil from a server
	// running without one — durability of acknowledged writes is then the
	// operator's problem.
	WAL *core.WALStats
}

// ServerInfo describes srv as the info op reports it (and as shard.Local
// does in-process), the counts all read from one snapshot so they are never
// torn across a mutation.
func ServerInfo(srv *core.Server) Info {
	cs := srv.CompactionStats()
	return Info{
		Backend:    srv.Backend(),
		N:          cs.Len,
		Live:       cs.Live,
		Dim:        srv.Dim(),
		Epoch:      cs.Epoch,
		Delta:      cs.Delta,
		Tombstones: cs.Tombstones,
		Memory:     srv.MemoryStats(),
		WAL:        srv.WALStats(),
	}
}

// request is the wire envelope for client→server calls.
type request struct {
	// Proto is the sender's ProtoVersion.
	Proto int
	// Seq is the multiplexing id (≥ 1): the server echoes it on the
	// matching response.
	Seq   uint64
	Op    string // "search", "insert", "delete", "len", "info"
	Token *wireToken
	K     int
	Opt   core.SearchOptions
	// Merge asks "search" to return per-id merge material
	// (filter distances or DCE records) alongside the ids, so a
	// scatter-gather coordinator can order results across shards.
	Merge   bool
	Payload *wireInsert
	ID      int
}

// response is the wire envelope for server→client replies.
type response struct {
	// Proto is the sender's ProtoVersion.
	Proto int
	// Seq echoes the request's multiplexing id.
	Seq uint64
	IDs []int
	// Dists/Recs/CtDim carry the merge material of a Merge search; Epoch
	// is the snapshot publication count that served it (read-your-writes
	// staleness checks in the replica tier).
	Dists []float64
	Recs  [][]float64
	CtDim int
	Epoch uint64
	ID    int
	N     int
	Live  int
	Info  *Info
	Err   string
}

// acceptBackoffMax caps the retry delay of the accept loop.
const acceptBackoffMax = time.Second

// maxInFlightPerConn bounds the handler goroutines one connection may have
// running at once. Requests beyond it queue in the read loop (the client
// keeps pipelining; the server just stops pulling new frames), so one
// misbehaving client cannot grow goroutines without bound.
const maxInFlightPerConn = 128

// serverWriteTimeout bounds each response write. Without it a client that
// pipelines requests and then stops reading would pin maxInFlightPerConn
// handler goroutines (plus their response payloads) per connection
// forever, every one blocked in Encode behind a full TCP send buffer.
// Generous on purpose: it only needs to catch wedged peers, not pace
// healthy ones.
const serverWriteTimeout = 2 * time.Minute

// Serve accepts connections on l and answers requests against srv until
// the listener closes. Each connection is served on its own goroutine, and
// each request on a connection is dispatched to its own handler goroutine
// (bounded by maxInFlightPerConn), so concurrent calls multiplexed over
// one connection run in parallel against the server's lock-free read path.
//
// Transient Accept failures (ECONNABORTED on a connection reset before
// accept, EMFILE under descriptor pressure, ...) must not kill the serving
// tier permanently: the loop retries with exponential backoff from 5ms up
// to one second, resetting after any successful accept, and only returns
// once the listener itself is closed. Each failure is logged — the backoff
// caps that at one line per second — so a permanently failing listener is
// visible to the operator instead of spinning silently.
//
// Closing the listener shuts the service down: Serve closes the
// connections it accepted that are still open, waits for their handlers,
// and only then returns — so a caller that waits for it knows no goroutine
// it started still holds srv.
func Serve(l net.Listener, srv *core.Server) error {
	var (
		mu   sync.Mutex
		open = map[net.Conn]struct{}{}
		wg   sync.WaitGroup
	)
	defer func() {
		mu.Lock()
		for c := range open {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}()
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else {
				delay *= 2
				if delay > acceptBackoffMax {
					delay = acceptBackoffMax
				}
			}
			log.Printf("transport: accept: %v (retrying in %v)", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		mu.Lock()
		open[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(conn, srv)
			mu.Lock()
			delete(open, conn)
			mu.Unlock()
		}()
	}
}

// serveConn multiplexes one connection: a single read loop decodes
// requests and hands each to a handler goroutine; responses are encoded
// under a write mutex so frames never interleave on the shared stream.
func serveConn(conn net.Conn, srv *core.Server) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var wmu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInFlightPerConn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			break // client hung up (io.EOF) or sent garbage
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(req request) {
			defer wg.Done()
			defer func() { <-sem }()
			var resp *response
			if req.Proto == ProtoVersion {
				resp = handleSafe(srv, &req)
			} else {
				resp = &response{Err: fmt.Sprintf("transport: request stamped protocol generation %d (0: no stamp, a build at or before PR 23), this server speaks generation %d; nothing was executed", req.Proto, ProtoVersion)}
			}
			resp.Proto, resp.Seq = ProtoVersion, req.Seq
			wmu.Lock()
			conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
			err := enc.Encode(resp)
			wmu.Unlock()
			if err != nil {
				// The stream is unrecoverable mid-message; closing the
				// connection also unblocks the read loop.
				conn.Close()
			}
		}(req)
	}
	wg.Wait()
	conn.Close()
}

// testHandleHook, when set, runs before every request is handled. Tests
// use it to inject panics and stalls that no well-formed request can
// otherwise produce (atomic so serving goroutines race-safely observe a
// test's store).
var testHandleHook atomic.Pointer[func(*request)]

// handleSafe is handle behind a recover(): a handler panic — a malformed
// request tripping an invariant deep in the search stack — becomes an
// error response on that one request instead of a crashed process or a
// torn connection. The panic is logged with a stack so the bug stays
// visible; the connection and every other multiplexed call on it survive.
func handleSafe(srv *core.Server, req *request) (resp *response) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("transport: panic serving %q: %v\n%s", req.Op, r, debug.Stack())
			resp = &response{Err: fmt.Sprintf("transport: internal error serving %q: %v", req.Op, r)}
		}
	}()
	if h := testHandleHook.Load(); h != nil {
		(*h)(req)
	}
	return handle(srv, req)
}

// wireRecs lists a result's DCE merge records as views into the snapshot
// store it borrows (nil under RefineNone). Views are safe to encode after
// the search has returned: a published store is never written within its
// length.
func wireRecs(r core.ShardResult) [][]float64 {
	if r.Store == nil {
		return nil
	}
	recs := make([][]float64, len(r.IDs))
	for i, id := range r.IDs {
		recs[i] = r.Store.Record(id)
	}
	return recs
}

// handle executes one decoded request against the server.
func handle(srv *core.Server, req *request) *response {
	var resp response
	switch req.Op {
	case "search":
		if req.Merge {
			r, err := srv.SearchShard(req.Token.token(), req.K, req.Opt)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.IDs, resp.Dists, resp.Recs, resp.CtDim = r.IDs, r.Dists, wireRecs(r), r.CtDim
				resp.Epoch = r.Epoch
			}
		} else {
			ids, err := srv.Search(req.Token.token(), req.K, req.Opt)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.IDs = ids
			}
		}
	case "insert":
		id, err := srv.Insert(req.Payload.payload())
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.ID = id
		}
	case "delete":
		if err := srv.Delete(req.ID); err != nil {
			resp.Err = err.Error()
		}
	case "len":
		// CompactionStats reads one snapshot for all its counts, so N and
		// Live can never be torn across a concurrent mutation. (Database()
		// would flush the delta tier — an observability call must not
		// trigger a compaction.)
		cs := srv.CompactionStats()
		resp.N = cs.Len
		resp.Live = cs.Live
	case "info":
		info := ServerInfo(srv)
		resp.Info = &info
	default:
		resp.Err = fmt.Sprintf("transport: unknown op %q", req.Op)
	}
	return &resp
}

// DialOptions configures a Client's deadlines. The zero value disables
// them all — calls then wait indefinitely.
type DialOptions struct {
	// DialTimeout bounds the TCP connect (0 = the OS default).
	DialTimeout time.Duration
	// Timeout is the per-call deadline: a call not answered within it
	// fails and poisons the client. The demux could drop the late
	// response by its Seq instead, but a deadline expiry usually means
	// the connection is sick: fail every call fast; redial to recover.
	Timeout time.Duration
	// WriteTimeout bounds each request's encode onto the socket.
	WriteTimeout time.Duration
	// ReadTimeout bounds the silence while calls are pending: the demux
	// loop must receive *some* response within it or the stream is
	// declared dead. An idle connection (no calls in flight) never times
	// out.
	ReadTimeout time.Duration
}

// callResult is what the demux loop delivers to a waiting caller.
type callResult struct {
	resp *response
	err  error
}

// Client is a connection to a remote PP-ANNS server, safe for concurrent
// use. Concurrent calls pipeline over the single connection: each is tagged
// with a Seq id, and a demux goroutine routes responses — which the server
// may complete out of order — back to their callers.
type Client struct {
	conn net.Conn
	opts DialOptions

	encMu sync.Mutex // serializes request frames onto the stream
	enc   *gob.Encoder

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan callResult
	// broken records the first stream-level failure. The unframed gob
	// stream cannot recover from a partial message, so once set every
	// later call fails fast wrapping ErrClientBroken. Application errors
	// (a response carrying Err) do not poison the stream — the message
	// framing survived intact.
	broken error
	closed bool
}

// Dial connects to a server started with Serve, with no deadlines.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith is Dial with explicit deadline options.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	var conn net.Conn
	var err error
	if opts.DialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		opts:    opts,
		enc:     gob.NewEncoder(conn),
		pending: make(map[uint64]chan callResult),
	}
	go c.demux()
	return c, nil
}

// Close tears down the connection; pending and future calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// Broken returns the stream error that poisoned this client, or nil while
// the connection is healthy.
func (c *Client) Broken() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// fail poisons the client: it records the first stream-level error, closes
// the connection (unblocking the demux loop and any blocked writers), and
// delivers the error to every pending call exactly once.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	pend := c.pending
	c.pending = make(map[uint64]chan callResult)
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pend {
		ch <- callResult{err: err}
	}
}

// bumpReadDeadline refreshes (or, with pending == 0, clears) the read
// deadline guarding the demux loop. Called after a request reaches the
// wire, on every byte of response progress, and after every completed
// response — never on mere registration — so the deadline bounds actual
// silence from a server that owes us an answer. Caller holds c.mu.
func (c *Client) bumpReadDeadline() {
	if c.opts.ReadTimeout <= 0 {
		return
	}
	if len(c.pending) == 0 {
		c.conn.SetReadDeadline(time.Time{})
	} else {
		c.conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
	}
}

// progressReader feeds the demux decoder and counts any received byte as
// liveness: each successful read while calls are pending re-arms the read
// deadline, so ReadTimeout bounds true silence — a large response frame
// that transfers slower than the timeout but keeps progressing never
// trips it.
type progressReader struct {
	c *Client
}

func (r *progressReader) Read(p []byte) (int, error) {
	n, err := r.c.conn.Read(p)
	if n > 0 && r.c.opts.ReadTimeout > 0 {
		r.c.mu.Lock()
		r.c.bumpReadDeadline()
		r.c.mu.Unlock()
	}
	return n, err
}

// demux is the Client's single reader: it decodes responses off the shared
// stream and routes each to the caller registered under its Seq.
func (c *Client) demux() {
	dec := gob.NewDecoder(&progressReader{c: c})
	for {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			switch {
			case closed:
				err = fmt.Errorf("transport: client closed")
			case errors.Is(err, io.EOF):
				err = fmt.Errorf("transport: server closed the connection")
			default:
				err = fmt.Errorf("transport: receive: %w", err)
			}
			c.fail(err)
			return
		}
		if resp.Proto != ProtoVersion {
			// Whatever the frame says was written under another
			// generation's meaning of its fields; deliver none of it.
			c.fail(fmt.Errorf("%w: response stamped generation %d (0: no stamp, a build at or before PR 23), this client speaks generation %d", ErrProtoMismatch, resp.Proto, ProtoVersion))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Seq]
		if ok {
			delete(c.pending, resp.Seq)
		}
		c.bumpReadDeadline()
		c.mu.Unlock()
		if ok {
			ch <- callResult{resp: &resp}
		}
		// A response with no waiter (an abandoned call's late answer, a
		// stray frame from a confused server) is dropped; the next decode
		// either resynchronizes or fails and poisons the stream.
	}
}

// ErrAbandoned is returned by cancellable calls whose cancel channel fired
// before the response arrived. The call is abandoned locally — the request
// stays in flight on the server and its response, when it comes, is
// dropped by Seq — and the client remains healthy for subsequent calls.
var ErrAbandoned = errors.New("transport: call abandoned by caller")

// abandon unregisters a pending call without poisoning the stream. It
// reports whether the call was still pending: false means the demux (or a
// failure) already resolved it and the caller should collect the result
// from its channel instead.
func (c *Client) abandon(seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[seq]; !ok {
		return false
	}
	delete(c.pending, seq)
	c.bumpReadDeadline()
	return true
}

func (c *Client) roundTrip(req request) (response, error) {
	return c.roundTripCancel(req, nil)
}

// roundTripCancel is roundTrip with an optional cancel channel: if cancel
// is closed before the response arrives the call returns ErrAbandoned
// without waiting and without poisoning the multiplexed stream (the hedged
// -read loser path). A nil cancel never fires.
func (c *Client) roundTripCancel(req request, cancel <-chan struct{}) (response, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := fmt.Errorf("%w (cause: %w)", ErrClientBroken, c.broken)
		c.mu.Unlock()
		return response{}, err
	}
	c.seq++
	req.Proto, req.Seq = ProtoVersion, c.seq
	ch := make(chan callResult, 1)
	c.pending[req.Seq] = ch
	c.mu.Unlock()

	c.encMu.Lock()
	// The write deadline is armed under the write lock, immediately
	// before the encode: set any earlier, time spent queued behind other
	// writers would count against it (and would retarget the deadline of
	// whichever Write is in progress), poisoning a healthy connection.
	if c.opts.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	err := c.enc.Encode(&req)
	c.encMu.Unlock()
	if err != nil {
		err = fmt.Errorf("transport: send: %w", err)
		c.fail(err)
		return response{}, err
	}
	// Arm the read deadline only once the request has actually reached
	// the wire — armed at registration it would count time spent queued
	// behind other writers, and the server cannot answer a request it
	// has not received. From here, every byte of response progress
	// (progressReader) and every completed response re-arm it, so it
	// bounds true silence.
	c.mu.Lock()
	c.bumpReadDeadline()
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.opts.Timeout > 0 {
		t := time.NewTimer(c.opts.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		return finishCall(r)
	case <-cancel:
		if c.abandon(req.Seq) {
			return response{}, ErrAbandoned
		}
		// The demux resolved the call in the same instant the cancel
		// fired; its result (buffered, or the failure fail() delivered)
		// is moments from the channel — return the real answer.
		return finishCall(<-ch)
	case <-timeout:
		err := fmt.Errorf("transport: call timed out after %v", c.opts.Timeout)
		c.fail(err)
		return response{}, err
	}
}

// finishCall unwraps a demux delivery into the roundTrip return contract.
func finishCall(r callResult) (response, error) {
	if r.err != nil {
		return response{}, r.err
	}
	if r.resp.Err != "" {
		return response{}, errors.New(r.resp.Err)
	}
	return *r.resp, nil
}

// Search sends an encrypted query token and returns result ids.
func (c *Client) Search(tok *core.QueryToken, k int, opt core.SearchOptions) ([]int, error) {
	resp, err := c.roundTrip(request{Op: "search", Token: toWireToken(tok), K: k, Opt: opt})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// SearchShard is Search additionally returning the merge material a
// scatter-gather coordinator needs (see core.Server.SearchShard): copies of
// the result ids' DCE records under RefineDCE, their filter distances under
// RefineNone.
func (c *Client) SearchShard(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	return c.SearchShardCancel(nil, tok, k, opt)
}

// SearchShardCancel is SearchShard with a cancel channel: closing cancel
// abandons the call (ErrAbandoned) without poisoning the client, which is
// how a hedged read discards its loser. A nil cancel never fires.
func (c *Client) SearchShardCancel(cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	resp, err := c.roundTripCancel(request{Op: "search", Token: toWireToken(tok), K: k, Opt: opt, Merge: true}, cancel)
	if err != nil {
		return core.ShardResult{}, err
	}
	return core.ShardResult{IDs: resp.IDs, Dists: resp.Dists, Recs: resp.Recs, CtDim: resp.CtDim, Epoch: resp.Epoch}, nil
}

// Insert ships one encrypted vector and returns its id.
func (c *Client) Insert(p *core.InsertPayload) (int, error) {
	resp, err := c.roundTrip(request{Op: "insert", Payload: toWireInsert(p)})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Delete removes an id on the server.
func (c *Client) Delete(id int) error {
	_, err := c.roundTrip(request{Op: "delete", ID: id})
	return err
}

// Len returns the server-side vector count (tombstones included).
func (c *Client) Len() (int, error) {
	resp, err := c.roundTrip(request{Op: "len"})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Live returns the server-side count of non-tombstoned vectors.
func (c *Client) Live() (int, error) {
	resp, err := c.roundTrip(request{Op: "len"})
	if err != nil {
		return 0, err
	}
	return resp.Live, nil
}

// Info returns the server's backend name, shape and write-path state.
func (c *Client) Info() (Info, error) {
	resp, err := c.roundTrip(request{Op: "info"})
	if err != nil {
		return Info{}, err
	}
	if resp.Info == nil {
		return Info{}, fmt.Errorf("transport: server sent no info")
	}
	return *resp.Info, nil
}
