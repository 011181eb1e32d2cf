package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/transport"
)

// ErrStaleReplica marks a read answered below the stripe's write floor: the
// replica missed at least one coordinator-routed write (a degraded write it
// was on the losing side of, or a restart from an old file) and its answer
// could omit inserted vectors or resurrect deleted ones. The replica set
// treats it like any other replica failure and fails over to a sibling.
var ErrStaleReplica = errors.New("shard: replica behind the stripe's write floor")

// searchCanceller is the optional Shard extension the hedged-read path
// uses to abandon a losing attempt: closing cancel releases the call
// without waiting for (or poisoning) the underlying connection.
// *transport.Client and *Remote implement it (and so does the tests'
// fault-injecting wrapper); plain Local does not need to — an in-process
// search cannot be abandoned midway, its result is simply discarded.
type searchCanceller interface {
	SearchShardCancel(cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error)
}

var _ searchCanceller = (*transport.Client)(nil)

// ReplicaSet is one stripe of a replicated deployment: the same shard-local
// id space served by RF interchangeable replicas. Reads go to one healthy
// replica (round-robin, circuit-breaker-filtered, with failover and
// optional hedging); writes fan to all replicas. The epoch floor — the
// snapshot publication count every replica that has seen all
// coordinator-routed writes must be at — is how a read detects it landed on
// a replica that missed a write: the answer's Epoch falls below the floor
// and the read fails over (read-your-writes through the coordinator).
type ReplicaSet struct {
	replicas []Shard
	breakers []*breaker
	rr       atomic.Uint64 // round-robin cursor
	floor    atomic.Uint64 // read-your-writes epoch floor
}

func newReplicaSet(replicas []Shard, opts BreakerOptions, floor uint64) *ReplicaSet {
	rs := &ReplicaSet{replicas: replicas, breakers: make([]*breaker, len(replicas))}
	rs.floor.Store(floor)
	for i := range rs.breakers {
		rs.breakers[i] = newBreaker(opts)
	}
	return rs
}

// searchOne sends one attempt to replica r and applies the staleness
// check: a successful answer from below the write floor is converted into
// an ErrStaleReplica failure, so the caller fails over exactly as if the
// replica had errored.
func (rs *ReplicaSet) searchOne(r int, cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	sh := rs.replicas[r]
	// The floor is captured before the read is issued: only writes that
	// completed before the read started bound it. A write that lands while
	// the read is in flight is ordered after it and need not be visible —
	// checking against the post-read floor would brand an up-to-date
	// replica stale whenever a write races a read.
	fl := rs.floor.Load()
	var res core.ShardResult
	var err error
	if sc, ok := sh.(searchCanceller); ok && cancel != nil {
		res, err = sc.SearchShardCancel(cancel, tok, k, opt)
	} else {
		res, err = sh.SearchShard(tok, k, opt)
	}
	if err == nil && res.Epoch < fl {
		err = fmt.Errorf("%w: answered at epoch %d, floor %d", ErrStaleReplica, res.Epoch, fl)
	}
	return res, err
}

// record folds one attempt's outcome into the replica's breaker. An
// abandoned call (hedge loser) says nothing about replica health and is
// not recorded.
func (rs *ReplicaSet) record(r int, err error) {
	switch {
	case err == nil:
		rs.breakers[r].success()
	case !errors.Is(err, transport.ErrAbandoned):
		rs.breakers[r].failure(time.Now())
	}
}

// search answers one query from the stripe: round-robin replica choice
// filtered through the breakers, immediate failover to a sibling on any
// failure, and — with hedge > 0 — a second speculative attempt once the
// first has been in flight that long, first response winning and the loser
// cancelled. Every replica is attempted at most once; if no breaker admits
// anything, one forced attempt goes through anyway (an all-open stripe
// still probes rather than refusing). The error, when every replica has
// failed, aggregates the per-replica causes.
func (rs *ReplicaSet) search(tok *core.QueryToken, k int, opt core.SearchOptions, hedge time.Duration) (core.ShardResult, error) {
	n := len(rs.replicas)
	start := int(rs.rr.Add(1)) % n
	if n == 1 {
		// Single replica: nothing to fail over or hedge to. Skip the
		// dispatch machinery so RF=1 costs what the unreplicated tier did.
		res, err := rs.searchOne(start, nil, tok, k, opt)
		rs.record(start, err)
		return res, err
	}

	type attempt struct {
		r   int
		res core.ShardResult
		err error
	}
	resCh := make(chan attempt, n) // buffered: losers never block after we return
	cancel := make(chan struct{})
	launched := make([]bool, n)
	launch := func(r int) {
		launched[r] = true
		go func() {
			res, err := rs.searchOne(r, cancel, tok, k, opt)
			rs.record(r, err)
			resCh <- attempt{r: r, res: res, err: err}
		}()
	}
	// next picks the first unlaunched replica (round-robin order) whose
	// breaker admits a request; when force is set and none does, the first
	// unlaunched one regardless, so a dead-looking stripe still gets
	// probed before the query is declared failed.
	next := func(force bool) int {
		now := time.Now()
		forced := -1
		for i := 0; i < n; i++ {
			r := (start + i) % n
			if launched[r] {
				continue
			}
			if rs.breakers[r].allow(now) {
				return r
			}
			if forced == -1 {
				forced = r
			}
		}
		if force {
			return forced
		}
		return -1
	}

	launch(next(true))
	outstanding := 1
	var hedgeC <-chan time.Time
	if hedge > 0 {
		t := time.NewTimer(hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	var errs []error
	for {
		select {
		case a := <-resCh:
			outstanding--
			if a.err == nil {
				close(cancel) // release any hedged loser
				return a.res, nil
			}
			if !errors.Is(a.err, transport.ErrAbandoned) {
				errs = append(errs, fmt.Errorf("replica %d: %w", a.r, a.err))
			}
			// Failover: the failed attempt is immediately replaced by the
			// next admitted sibling — forced if this was the last one in
			// flight and only refused replicas remain.
			if r := next(outstanding == 0); r != -1 {
				launch(r)
				outstanding++
			} else if outstanding == 0 {
				return core.ShardResult{}, fmt.Errorf("shard: all %d replicas failed: %w", n, errors.Join(errs...))
			}
		case <-hedgeC:
			hedgeC = nil
			if r := next(false); r != -1 {
				launch(r)
				outstanding++
			}
		}
	}
}

// WriteOutcome is one replica's result for a fanned-out write. A nil Err
// means the replica applied it.
type WriteOutcome struct {
	Replica int
	Err     error
}

// insert applies one payload to every replica, each of which must assign
// the expected local id (the striped-growth invariant — a mismatch means
// the replica was mutated outside the coordinator and counts as a
// failure). If at least one replica applied it, the write floor advances:
// replicas that missed the write now answer below the floor and reads
// route around them. Returns the per-replica outcomes and the success
// count.
func (rs *ReplicaSet) insert(p *core.InsertPayload, local int) ([]WriteOutcome, int) {
	outcomes := make([]WriteOutcome, len(rs.replicas))
	ok := 0
	for r, sh := range rs.replicas {
		got, err := sh.Insert(p)
		if err == nil && got != local {
			err = fmt.Errorf("shard: insert landed at local id %d, want %d — replica mutated outside the coordinator", got, local)
		}
		outcomes[r] = WriteOutcome{Replica: r, Err: err}
		rs.record(r, err)
		if err == nil {
			ok++
		}
	}
	if ok > 0 {
		rs.floor.Add(1)
	}
	return outcomes, ok
}

// delete is insert's tombstoning twin: fan to all replicas, advance the
// floor if anyone applied it.
func (rs *ReplicaSet) delete(local int) ([]WriteOutcome, int) {
	outcomes := make([]WriteOutcome, len(rs.replicas))
	ok := 0
	for r, sh := range rs.replicas {
		err := sh.Delete(local)
		outcomes[r] = WriteOutcome{Replica: r, Err: err}
		rs.record(r, err)
		if err == nil {
			ok++
		}
	}
	if ok > 0 {
		rs.floor.Add(1)
	}
	return outcomes, ok
}

// Remote is a Shard backed by a transport.Client that redials itself after
// the client poisons: the first call after a stream-level failure pays the
// ErrClientBroken (its breaker failure is what diverts traffic), and the
// next one dials fresh. This is what lets a breaker actually re-close
// after a remote replica comes back — the poisoned client it died with
// would otherwise fail every probe forever.
type Remote struct {
	addr string
	opts transport.DialOptions

	mu     sync.Mutex
	client *transport.Client
}

var (
	_ Shard           = (*Remote)(nil)
	_ searchCanceller = (*Remote)(nil)
)

// NewRemote returns a self-healing remote shard for addr. Dialing is lazy:
// the first call connects.
func NewRemote(addr string, opts transport.DialOptions) *Remote {
	return &Remote{addr: addr, opts: opts}
}

// get returns a healthy client, dialing a fresh one if the previous was
// poisoned or never existed.
func (rm *Remote) get() (*transport.Client, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.client != nil {
		if rm.client.Broken() == nil {
			return rm.client, nil
		}
		rm.client.Close()
		rm.client = nil
	}
	c, err := transport.DialWith(rm.addr, rm.opts)
	if err != nil {
		return nil, err
	}
	rm.client = c
	return c, nil
}

func (rm *Remote) SearchShard(tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	return rm.SearchShardCancel(nil, tok, k, opt)
}

func (rm *Remote) SearchShardCancel(cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	c, err := rm.get()
	if err != nil {
		return core.ShardResult{}, err
	}
	return c.SearchShardCancel(cancel, tok, k, opt)
}

func (rm *Remote) Insert(p *core.InsertPayload) (int, error) {
	c, err := rm.get()
	if err != nil {
		return 0, err
	}
	return c.Insert(p)
}

func (rm *Remote) Delete(local int) error {
	c, err := rm.get()
	if err != nil {
		return err
	}
	return c.Delete(local)
}

func (rm *Remote) Info() (transport.Info, error) {
	c, err := rm.get()
	if err != nil {
		return transport.Info{}, err
	}
	return c.Info()
}

// Close tears down the current connection, if any.
func (rm *Remote) Close() error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.client == nil {
		return nil
	}
	err := rm.client.Close()
	rm.client = nil
	return err
}
