// Package transport deploys the PP-ANNS roles across machines: a framed
// binary protocol over TCP carrying query tokens to the cloud server and
// result ids back — the deployment shape of the paper's Figure 1, where the
// only user↔server traffic is one encrypted token up and k ids down.
//
// Every message in either direction is one frame envelope,
//
//	[len u32][proto u8][op u8][seq u64][payload: len bytes][crc32c u32]
//
// each op's payload written straight from the core types (appendRequest,
// appendResponse) in the frame package's little-endian codec. The bytes
// are untrusted on both sides: the envelope reader checks the generation
// and then len against frame.MaxLen before anything else is read, grows
// the payload buffer only as bytes arrive and verifies the CRC, and every
// count inside is held to the bytes that remain.
//
// The server echoes each request's client-assigned seq (≥ 1), so one
// connection multiplexes any number of concurrent calls: a client demux
// goroutine routes each response to the caller waiting on its seq (and
// drops one nobody waits for), and the server runs every request on its
// own handler goroutine. A slow search does not block the queries behind
// it, and the scatter-gather tier (internal/shard) keeps one connection
// per shard.
//
// Every frame carries ProtoVersion and nothing is negotiated: a frame of
// another generation — the gob generations before 7 never form a frame of
// this one — is refused with an error naming both; the server executes
// nothing, the client poisons its connection with ErrProtoMismatch. A
// frame whose checksum fails, or whose header claims more than
// frame.MaxLen, is refused the same way. An error the server answers with
// (ErrRefused), or a payload that fails to decode inside an intact frame,
// fails only its own call. I/O errors, an expired call deadline and
// refused frames poison the connection: the calls in flight on it fail,
// and the Client's next call dials a fresh one.
package transport

import (
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
	"ppanns/internal/frame"
)

// ErrClientBroken wraps the error of a call that found its connection
// poisoned by an earlier stream failure: that stream is no longer known to
// be at a frame boundary, so it is never used again. The Client's next
// call dials a fresh connection.
var ErrClientBroken = errors.New("transport: connection poisoned by an earlier stream error")

// ErrProtoMismatch is the error of a frame stamped with another protocol
// generation. It poisons the connection, and against the same peer every
// call redials and is refused again.
var ErrProtoMismatch = frame.ErrGeneration

// ErrRefused matches every error a server answered a call with (an opError
// frame): a refusal of the request itself, such as a core validation
// error. The connection stays healthy, and a replica tier counts the call
// as answered. The error's message is the server's, unchanged.
var ErrRefused = errors.New("transport: request refused by the server")

// Refused marks err as a server's answer, matching ErrRefused with its
// message unchanged; nil stays nil. shard.Local marks core's errors so.
func Refused(err error) error {
	if err == nil {
		return nil
	}
	return refusal{err}
}

type refusal struct{ error }

func (r refusal) Is(target error) bool { return target == ErrRefused }
func (r refusal) Unwrap() error        { return r.error }

// ProtoVersion is the one protocol generation this package speaks, stamped
// on every frame.
const ProtoVersion = 10

// The ops. A response carries its request's op, or opError with the
// message as a string payload.
const (
	opSearch      byte = 1 // k and options, token → ids
	opSearchShard byte = 2 // as opSearch → ids and merge material
	opInsert      byte = 3 // insert payload → id
	opDelete      byte = 4 // id → nothing
	opLen         byte = 5 // nothing → record counts
	opInfo        byte = 6 // nothing → Info
	opError       byte = 0xff
)

var opNames = map[byte]string{opSearch: "search", opSearchShard: "search-shard", opInsert: "insert",
	opDelete: "delete", opLen: "len", opInfo: "info", opError: "error"}

func opName(op byte) string {
	if name, ok := opNames[op]; ok {
		return name
	}
	return fmt.Sprintf("op %d", op)
}

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

// request is a decoded client→server call.
type request struct {
	op  byte
	tok *core.QueryToken // opSearch, opSearchShard
	k   int
	opt core.SearchOptions
	ins *core.InsertPayload // opInsert
	id  int                 // opDelete
}

// response is a server→client answer; which fields are set follows op.
type response struct {
	op      byte   // the request's, or opError
	err     string // opError
	ids     []int  // opSearch
	shard   core.ShardResult
	id      int // opInsert
	n, live int // opLen
	info    Info
}

// appendRequest appends req's payload: core.AppendQuery's for the
// searches, core.AppendInsert's for an insert, [id i64] for a delete and
// nothing for len and info.
func appendRequest(b []byte, req *request) []byte {
	switch req.op {
	case opSearch, opSearchShard:
		return core.AppendQuery(b, req.tok, req.k, req.opt)
	case opInsert:
		return core.AppendInsert(b, req.ins)
	case opDelete:
		return frame.AppendInt(b, req.id)
	}
	return b
}

// decodeRequest decodes the payload of an op frame. Anything but the
// exact layout of a known op is an error, which fails only this call.
func decodeRequest(op byte, p []byte) (*request, error) {
	req := &request{op: op}
	r := frame.NewReader(p)
	switch op {
	case opSearch, opSearchShard:
		req.tok, req.k, req.opt = core.ReadQuery(r)
	case opInsert:
		req.ins = core.ReadInsert(r)
	case opDelete:
		req.id = r.Int()
	case opLen, opInfo:
	default:
		return nil, fmt.Errorf("transport: unknown %s", opName(op))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transport: malformed %s request: %w", opName(op), err)
	}
	return req, nil
}

// appendResponse appends resp's payload: the message for an error, the
// ids for a search, core.AppendShardResult's for a search-shard, [id i64]
// for an insert, nothing for a delete, [n live i64] for len and
// appendInfo's for info.
func appendResponse(b []byte, resp *response) []byte {
	switch resp.op {
	case opError:
		return frame.AppendString(b, resp.err)
	case opSearch:
		return frame.AppendInts(b, resp.ids)
	case opSearchShard:
		return core.AppendShardResult(b, &resp.shard)
	case opInsert:
		return frame.AppendInt(b, resp.id)
	case opLen:
		return frame.AppendInt(frame.AppendInt(b, resp.n), resp.live)
	case opInfo:
		return appendInfo(b, &resp.info)
	}
	return b
}

// decodeResponse decodes the payload of a response frame of op got to a
// call of op want. Anything but an error or the exact layout of want
// fails the call; the stream itself is still at a frame boundary.
func decodeResponse(want, got byte, p []byte) (resp response, err error) {
	if got != want && got != opError {
		return resp, fmt.Errorf("transport: %s call answered with a %s frame", opName(want), opName(got))
	}
	resp.op = got
	r := frame.NewReader(p)
	switch got {
	case opError:
		resp.err = r.String()
	case opSearch:
		resp.ids = r.Ints()
	case opSearchShard:
		resp.shard = core.ReadShardResult(r)
	case opInsert:
		resp.id = r.Int()
	case opLen:
		resp.n, resp.live = r.Int(), r.Int()
	case opInfo:
		resp.info = readInfo(r)
	}
	switch err := r.Done(); {
	case err != nil:
		return response{}, fmt.Errorf("transport: malformed %s response: %w", opName(got), err)
	case got == opError:
		return response{}, Refused(errors.New(resp.err))
	}
	return resp, nil
}

// appendInfo appends [Backend: count u32, bytes] [N Live Dim Delta
// Tombstones i64] [Epoch u64], then core.AppendMemoryStats' and
// core.AppendWALStats' payloads.
func appendInfo(b []byte, in *Info) []byte {
	b = frame.AppendString(b, in.Backend)
	for _, v := range []int{in.N, in.Live, in.Dim, in.Delta, in.Tombstones} {
		b = frame.AppendInt(b, v)
	}
	return core.AppendWALStats(core.AppendMemoryStats(frame.AppendU64(b, in.Epoch), &in.Memory), in.WAL)
}

// readInfo reads what appendInfo wrote.
func readInfo(r *frame.Reader) Info {
	in := Info{Backend: r.String()}
	for _, p := range []*int{&in.N, &in.Live, &in.Dim, &in.Delta, &in.Tombstones} {
		*p = r.Int()
	}
	in.Epoch = r.U64()
	in.Memory = core.ReadMemoryStats(r)
	in.Memory.Live = in.Live
	in.WAL = core.ReadWALStats(r)
	return in
}

// acceptBackoffMax caps the retry delay of the accept loop.
const acceptBackoffMax = time.Second

// maxInFlightPerConn bounds the handler goroutines one connection may have
// running at once; beyond it the read loop stops pulling new frames.
const maxInFlightPerConn = 128

// serverWriteTimeout bounds each response write, so a client that
// pipelines requests and stops reading cannot pin its handlers forever
// behind a full TCP send buffer. Generous on purpose: it only needs to
// catch wedged peers.
const serverWriteTimeout = 2 * time.Minute

// Serve accepts connections on l and answers requests against srv until
// the listener closes. Each connection is served on its own goroutine, and
// each request on a connection is dispatched to its own handler goroutine
// (bounded by maxInFlightPerConn), so concurrent calls multiplexed over
// one connection run in parallel against the server's lock-free read path.
//
// Transient Accept failures (ECONNABORTED, EMFILE, ...) do not kill the
// serving tier: the loop logs each and retries with exponential backoff
// from 5ms up to one second, and only returns once the listener itself is
// closed.
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
			delay = min(max(2*delay, 5*time.Millisecond), acceptBackoffMax)
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
// requests and hands each to a handler goroutine; responses are written
// under a write mutex so frames never interleave on the shared stream.
func serveConn(conn net.Conn, srv *core.Server) {
	fr := frame.NewEnvelopeReader(conn, ProtoVersion)
	var (
		wmu  sync.Mutex
		wbuf []byte // the response being written; grows to fit
		wg   sync.WaitGroup
	)
	reply := func(seq uint64, resp response) {
		wmu.Lock()
		defer wmu.Unlock()
		var err error
		wbuf, err = frame.AppendEnvelope(wbuf[:0], ProtoVersion, resp.op, seq, func(b []byte) []byte { return appendResponse(b, &resp) })
		if err != nil {
			msg := fmt.Sprintf("transport: %s answer: %v", opName(resp.op), err)
			wbuf, _ = frame.AppendEnvelope(wbuf[:0], ProtoVersion, opError, seq, func(b []byte) []byte { return frame.AppendString(b, msg) })
		}
		conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
		if _, err := conn.Write(wbuf); err != nil {
			// The stream is unrecoverable mid-frame; closing the
			// connection also unblocks the read loop.
			conn.Close()
		}
	}
	sem := make(chan struct{}, maxInFlightPerConn)
	for {
		op, seq, payload, err := fr.Next()
		if err != nil {
			// A refused frame leaves the stream at no trusted boundary: say
			// why, and drain the peer's bytes for a second so that closing
			// does not reset the connection before it reads the refusal.
			if errors.Is(err, frame.ErrEnvelope) {
				reply(seq, errorResponse(fmt.Sprintf("%v; nothing was executed", err)))
				conn.SetReadDeadline(time.Now().Add(time.Second))
				io.Copy(io.Discard, conn)
			}
			break // client hung up (io.EOF) or the stream broke
		}
		req, err := decodeRequest(op, payload)
		if err != nil {
			reply(seq, errorResponse(err.Error()))
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			reply(seq, handleSafe(srv, req))
		}()
	}
	wg.Wait()
	conn.Close()
}

func errorResponse(msg string) response { return response{op: opError, err: msg} }

// testHandleHook, when set, runs before every request is handled: tests
// inject panics and stalls through it.
var testHandleHook atomic.Pointer[func(*request)]

// handleSafe is handle behind a recover(): a handler panic becomes an
// error response on that one request, logged with its stack, instead of
// a crashed process or a torn connection.
func handleSafe(srv *core.Server, req *request) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("transport: panic serving %s: %v\n%s", opName(req.op), r, debug.Stack())
			resp = errorResponse(fmt.Sprintf("transport: internal error serving %s: %v", opName(req.op), r))
		}
	}()
	if h := testHandleHook.Load(); h != nil {
		(*h)(req)
	}
	return handle(srv, req)
}

// handle executes one decoded request against the server.
func handle(srv *core.Server, req *request) response {
	resp := response{op: req.op}
	var err error
	switch req.op {
	case opSearch:
		resp.ids, err = srv.Search(req.tok, req.k, req.opt)
	case opSearchShard:
		// Refuse before searching an answer that could not travel: k
		// results (or every record, if fewer) of an id and a DCE record
		// of 4·ctDim floats.
		per := 8 + 32*dce.CiphertextDim(srv.Dim())
		if n := min(req.k, srv.Len()); n > (frame.MaxLen-64)/per {
			return errorResponse(fmt.Sprintf("transport: a merge answer of %d results at %d bytes each exceeds the %d-byte frame limit", n, per, frame.MaxLen))
		}
		resp.shard, err = srv.SearchShard(req.tok, req.k, req.opt)
	case opInsert:
		resp.id, err = srv.Insert(req.ins)
	case opDelete:
		err = srv.Delete(req.id)
	case opLen:
		// One snapshot's counts, never torn across a mutation; Flush
		// would fold the delta tier, and an observability call must not
		// trigger a compaction.
		cs := srv.CompactionStats()
		resp.n, resp.live = cs.Len, cs.Live
	case opInfo:
		resp.info = ServerInfo(srv)
	}
	if err != nil {
		return errorResponse(err.Error())
	}
	return resp
}

// DialOptions configures a Client's deadlines. The zero value disables
// them all — calls then wait indefinitely.
type DialOptions struct {
	// DialTimeout bounds each TCP connect, the first and every redial
	// (0 = the OS default).
	DialTimeout time.Duration
	// Timeout is the per-call deadline: a call not answered within it
	// fails and poisons its connection, and the Client's next call dials
	// a fresh one. The demux could drop the late response by its seq
	// instead, but a deadline expiry usually means the connection is sick:
	// fail every call on it fast and start over.
	Timeout time.Duration
}

// callResult is what the demux loop delivers to a waiting caller.
type callResult struct {
	resp response
	err  error
}

// pendingCall is a call awaiting its response: the op it sent, which is
// the only op its answer may carry besides an error.
type pendingCall struct {
	op byte
	ch chan callResult
}

// errClosed fails every call on, or in flight at, a Closed client.
var errClosed = errors.New("transport: client closed")

// Client is a self-healing connection to a remote PP-ANNS server, safe for
// concurrent use. Concurrent calls pipeline over one connection: each is
// tagged with a seq id, and a demux goroutine routes responses — which the
// server may complete out of order — back to their callers. A stream
// failure poisons that connection and fails the calls in flight on it; the
// next call dials a fresh one. A Closed client never redials.
type Client struct {
	addr string
	opts DialOptions

	mu     sync.Mutex
	cur    *clientConn // nil until the first dial
	closed bool
}

// clientConn is one connection of a Client and everything that lives and
// dies with it.
type clientConn struct {
	nc      net.Conn
	timeout time.Duration

	wmu  sync.Mutex // serializes request frames onto the connection
	wbuf []byte     // the request being written; grows to fit

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]pendingCall
	// broken records the first stream-level failure. Once set the
	// connection is closed and never used again. Errors inside intact
	// frames (an error response, a payload that does not decode) fail
	// only their own call.
	broken error
}

// Dial connects to a server started with Serve, with no deadlines.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith is Dial with explicit deadline options. It connects at once;
// NewClient connects on first use instead.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	c := NewClient(addr, opts)
	if _, err := c.conn(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient returns a client of the server at addr that connects on its
// first call, so a server down at construction fails calls, not this.
func NewClient(addr string, opts DialOptions) *Client {
	return &Client{addr: addr, opts: opts}
}

// conn returns the current connection, dialing a fresh one if there is
// none yet or the current one is poisoned.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	if c.cur != nil && c.cur.err() == nil {
		return c.cur, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	c.cur = &clientConn{nc: nc, timeout: c.opts.Timeout, pending: make(map[uint64]pendingCall)}
	go c.cur.demux()
	return c.cur, nil
}

// Close tears down the connection; pending and future calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cur != nil {
		c.cur.fail(errClosed)
	}
	return nil
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

// err returns the stream error that poisoned cn, or nil.
func (cn *clientConn) err() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.broken
}

// fail poisons the connection: it records the first stream-level error,
// closes the socket (unblocking the demux loop and any blocked writers),
// and delivers the error to every pending call exactly once.
func (cn *clientConn) fail(err error) {
	cn.mu.Lock()
	if cn.broken == nil {
		cn.broken = err
	}
	pend := cn.pending
	cn.pending = make(map[uint64]pendingCall)
	cn.mu.Unlock()
	cn.nc.Close()
	for _, pc := range pend {
		pc.ch <- callResult{err: err}
	}
}

// demux is the connection's single reader: it reads response frames off
// the socket, decodes each for the call registered under its seq and
// delivers it.
func (cn *clientConn) demux() {
	fr := frame.NewEnvelopeReader(cn.nc, ProtoVersion)
	for {
		op, seq, payload, err := fr.Next()
		if err != nil {
			switch {
			case errors.Is(err, frame.ErrEnvelope):
				// Whatever the frame says is not this generation's to
				// read, or not what the server sent; deliver none of it.
			case errors.Is(err, io.EOF):
				err = fmt.Errorf("transport: server closed the connection")
			default:
				err = fmt.Errorf("transport: receive: %w", err)
			}
			// A Closed client's fail came first and its error stands.
			cn.fail(err)
			return
		}
		cn.mu.Lock()
		pc, ok := cn.pending[seq]
		if ok {
			delete(cn.pending, seq)
		}
		cn.mu.Unlock()
		if !ok {
			// A response with no waiter (an abandoned call's late answer,
			// a stray frame from a confused server) is dropped.
			continue
		}
		resp, err := decodeResponse(pc.op, op, payload)
		pc.ch <- callResult{resp, err}
	}
}

// ErrAbandoned is returned by cancellable calls whose cancel channel fired
// before the response arrived. The call is abandoned locally — the request
// stays in flight on the server and its response, when it comes, is
// dropped by seq — and the connection remains healthy for subsequent calls.
var ErrAbandoned = errors.New("transport: call abandoned by caller")

// abandon unregisters a pending call without poisoning the stream. It
// reports whether the call was still pending: false means the demux (or a
// failure) already resolved it and the caller should collect the result
// from its channel instead.
func (cn *clientConn) abandon(seq uint64) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if _, ok := cn.pending[seq]; !ok {
		return false
	}
	delete(cn.pending, seq)
	return true
}

// roundTrip is the current connection's, dialing one first if needed.
func (c *Client) roundTrip(req *request, cancel <-chan struct{}) (response, error) {
	cn, err := c.conn()
	if err != nil {
		return response{}, err
	}
	return cn.roundTrip(req, cancel)
}

// roundTrip sends req and waits for its response, the zero response with
// any error. If cancel (nil never fires) is closed first the call returns
// ErrAbandoned without waiting and without poisoning the multiplexed
// stream (the hedged-read loser path).
func (cn *clientConn) roundTrip(req *request, cancel <-chan struct{}) (response, error) {
	cn.mu.Lock()
	if cn.broken != nil {
		// Poisoned between Client.conn and here: the next call redials.
		err := fmt.Errorf("%w (cause: %w)", ErrClientBroken, cn.broken)
		cn.mu.Unlock()
		return response{}, err
	}
	cn.seq++
	seq := cn.seq
	ch := make(chan callResult, 1)
	cn.pending[seq] = pendingCall{op: req.op, ch: ch}
	cn.mu.Unlock()

	cn.wmu.Lock()
	var err error
	cn.wbuf, err = frame.AppendEnvelope(cn.wbuf[:0], ProtoVersion, req.op, seq, func(b []byte) []byte { return appendRequest(b, req) })
	if err != nil {
		err = fmt.Errorf("transport: %s request: %w", opName(req.op), err)
		// Nothing was written: only this call fails.
		cn.wmu.Unlock()
		cn.abandon(seq)
		return response{}, err
	}
	_, err = cn.nc.Write(cn.wbuf)
	cn.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("transport: send: %w", err)
		cn.fail(err)
		return response{}, err
	}

	var timeout <-chan time.Time
	if cn.timeout > 0 {
		t := time.NewTimer(cn.timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-cancel:
		if cn.abandon(seq) {
			return response{}, ErrAbandoned
		}
		// The demux resolved the call in the same instant the cancel
		// fired; its result (buffered, or the failure fail() delivered)
		// is moments from the channel — return the real answer.
		r := <-ch
		return r.resp, r.err
	case <-timeout:
		err := fmt.Errorf("transport: call timed out after %v", cn.timeout)
		cn.fail(err)
		return response{}, err
	}
}

// Search sends an encrypted query token and returns result ids.
func (c *Client) Search(tok *core.QueryToken, k int, opt core.SearchOptions) ([]int, error) {
	r, err := c.roundTrip(&request{op: opSearch, tok: tok, k: k, opt: opt}, nil)
	return r.ids, err
}

// SearchShard is Search additionally returning the merge material a
// scatter-gather coordinator needs (see core.Server.SearchShard): copies of
// the result ids' DCE records. The filter-only mode is refused.
func (c *Client) SearchShard(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	return c.SearchShardCancel(nil, tok, k, opt)
}

// SearchShardCancel is SearchShard with a cancel channel: closing cancel
// abandons the call (ErrAbandoned) without poisoning the client, which is
// how a hedged read discards its loser. A nil cancel never fires.
func (c *Client) SearchShardCancel(cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	r, err := c.roundTrip(&request{op: opSearchShard, tok: tok, k: k, opt: opt}, cancel)
	return r.shard, err
}

// Insert ships one encrypted vector and returns its id.
func (c *Client) Insert(p *core.InsertPayload) (int, error) {
	r, err := c.roundTrip(&request{op: opInsert, ins: p}, nil)
	return r.id, err
}

// Delete removes an id on the server.
func (c *Client) Delete(id int) error {
	_, err := c.roundTrip(&request{op: opDelete, id: id}, nil)
	return err
}

// Len returns the server-side vector count (tombstones included).
func (c *Client) Len() (int, error) {
	r, err := c.roundTrip(&request{op: opLen}, nil)
	return r.n, err
}

// Live returns the server-side count of non-tombstoned vectors.
func (c *Client) Live() (int, error) {
	r, err := c.roundTrip(&request{op: opLen}, nil)
	return r.live, err
}

// Info returns the server's backend name, shape and write-path state.
func (c *Client) Info() (Info, error) {
	r, err := c.roundTrip(&request{op: opInfo}, nil)
	return r.info, err
}
