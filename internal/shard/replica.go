package shard

import (
	"errors"
	"fmt"
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

// replicaSet is one stripe of a replicated deployment: the same shard-local
// id space served by RF interchangeable replicas. Reads go to one healthy
// replica (round-robin, circuit-breaker-filtered, with failover and
// optional hedging); writes fan to all replicas. The epoch floor — the
// snapshot publication count every replica that has seen all
// coordinator-routed writes must be at — is how a read detects it landed on
// a replica that missed a write: the answer's Epoch falls below the floor
// and the read fails over (read-your-writes through the coordinator).
type replicaSet struct {
	replicas []Shard
	breakers []*breaker
	rr       atomic.Uint64 // round-robin cursor
	floor    atomic.Uint64 // read-your-writes epoch floor
}

func newReplicaSet(replicas []Shard, tune breakerTuning, floor uint64) *replicaSet {
	rs := &replicaSet{replicas: replicas, breakers: make([]*breaker, len(replicas))}
	rs.floor.Store(floor)
	for i := range rs.breakers {
		rs.breakers[i] = &breaker{tune: tune}
	}
	return rs
}

// searchOne sends one attempt to replica r and applies the staleness
// check: a successful answer from below the write floor is converted into
// an ErrStaleReplica failure, so the caller fails over exactly as if the
// replica had errored.
func (rs *replicaSet) searchOne(r int, cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	// The floor is captured before the read is issued: only writes that
	// completed before the read started bound it. A write that lands while
	// the read is in flight is ordered after it and need not be visible —
	// checking against the post-read floor would brand an up-to-date
	// replica stale whenever a write races a read.
	fl := rs.floor.Load()
	res, err := rs.replicas[r].SearchShardCancel(cancel, tok, k, opt)
	if err == nil && res.Epoch < fl {
		err = fmt.Errorf("%w: answered at epoch %d, floor %d", ErrStaleReplica, res.Epoch, fl)
	}
	return res, err
}

// record folds one attempt's outcome into the replica's breaker. A
// refusal (transport.ErrRefused) is the replica answering, so it counts
// as a success: a client's bad request must not trip a healthy replica.
// An abandoned call (hedge loser) says nothing about replica health and is
// not recorded.
func (rs *replicaSet) record(r int, err error) {
	switch {
	case err == nil || errors.Is(err, transport.ErrRefused):
		rs.breakers[r].success()
	case !errors.Is(err, transport.ErrAbandoned):
		rs.breakers[r].failure(time.Now())
	}
}

// search answers one query from the stripe: round-robin replica choice
// filtered through the breakers, immediate failover to a sibling on any
// failure but a refusal, which every copy would repeat and which is
// returned at once, and — with hedge > 0 — a second speculative attempt once the
// first has been in flight that long, first response winning and the loser
// cancelled. Every replica is attempted at most once; if no breaker admits
// anything, one forced attempt goes through anyway (an all-open stripe
// still probes rather than refusing). The error, when every replica has
// failed, aggregates the per-replica causes.
func (rs *replicaSet) search(tok *core.QueryToken, k int, opt core.SearchOptions, hedge time.Duration) (core.ShardResult, error) {
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
			if a.err == nil || errors.Is(a.err, transport.ErrRefused) {
				close(cancel) // release any hedged loser
				return a.res, a.err
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

// writeOp is one coordinator-routed write: an insert of p, which every
// replica must assign the local id local, or a delete of local.
type writeOp struct {
	name  string // "insert" or "delete"
	p     *core.InsertPayload
	local int
}

// to applies op to one replica. An insert that lands at another local id
// than expected (the striped-growth invariant) means the replica was
// mutated outside the coordinator, and counts as a failure.
func (op writeOp) to(sh Shard) error {
	if op.name == "delete" {
		return sh.Delete(op.local)
	}
	got, err := sh.Insert(op.p)
	if err == nil && got != op.local {
		err = fmt.Errorf("shard: insert landed at local id %d, want %d — replica mutated outside the coordinator", got, op.local)
	}
	return err
}

// write fans op to every replica. If at least one replica applied it, the
// write floor advances: replicas that missed the write now answer below
// the floor and reads route around them. Returns the per-replica outcomes
// and the success count.
func (rs *replicaSet) write(op writeOp) ([]WriteOutcome, int) {
	outcomes := make([]WriteOutcome, len(rs.replicas))
	ok := 0
	for r, sh := range rs.replicas {
		err := op.to(sh)
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

// Remote is the name the benchmark's cluster workload gives a remote
// replica; it leaves with that workload's next change. A
// *transport.Client is a Shard and redials itself.
type Remote = transport.Client

// NewRemote is transport.NewClient under the benchmark's name for it.
func NewRemote(addr string, opts transport.DialOptions) *Remote {
	return transport.NewClient(addr, opts)
}
