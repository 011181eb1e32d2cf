package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dce"
	"ppanns/internal/transport"
)

// Both shard flavors must keep satisfying the interface.
var (
	_ Shard = Local{}
	_ Shard = (*transport.Client)(nil)
)

// Options tunes a coordinator beyond its shard set.
type Options struct {
	// DivideEffort makes the coordinator hand every shard its per-shard
	// share of the filter effort (SearchOptions.Partition) instead of the
	// full k′/ef: n shards then perform ≈ one server's worth of total
	// filter work per query rather than n×, which is what lets the
	// sharded tier match — and under real parallelism beat — a single
	// server on throughput. The candidate pool keeps its total size,
	// merely spread across shards, so recall holds at the same operating
	// point; the per-shard candidate sets do shift, so results are no
	// longer guaranteed bit-identical to an unsharded server on exact
	// ties (the default, full-effort mode keeps that guarantee).
	DivideEffort bool
	// HedgeAfter, when positive on a replicated coordinator, arms hedged
	// reads: if a stripe's first replica has not answered within this
	// budget, a second attempt fires at a sibling and the first response
	// wins (the loser is cancelled without poisoning its connection). Set
	// it near the stripe's p99 latency so only genuine stragglers pay the
	// duplicate work. Zero disables hedging.
	HedgeAfter time.Duration
	// AllowPartial turns a dead stripe (every replica failed) from a
	// query-fatal ShardError into graceful degradation: Search merges the
	// surviving stripes' answers and returns them alongside a *PartialError
	// naming the dead stripes, so the caller chooses between best-effort
	// results and strict completeness.
	AllowPartial bool
}

// PartialError reports that a search answered without every stripe: the
// returned ids are the correctly merged top-k of the stripes that did
// answer (AllowPartial mode). Each dead stripe's ids are simply absent
// from the candidate pool — a stripe holds a 1/N slice of the database,
// so the results are still valid neighbors, just possibly not the global
// top-k.
type PartialError struct {
	// Stripes are the dead stripe indices, ascending; Errs are their
	// failures, parallel.
	Stripes []int
	Errs    []error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("shard: partial results: %d stripes dead (first: stripe %d: %v)",
		len(e.Stripes), e.Stripes[0], e.Errs[0])
}

// Unwrap exposes the stripe failures to errors.Is/As.
func (e *PartialError) Unwrap() []error { return e.Errs }

// ErrDegradedWrite is the sentinel a *DegradedWriteError matches with
// errors.Is: the write was applied by at least one replica (and counts —
// reads route around the replicas that missed it via the epoch floor) but
// not by all of them, so the stripe is running with reduced redundancy
// until the divergent replicas are rebuilt.
var ErrDegradedWrite = errors.New("shard: write applied by only some replicas")

// DegradedWriteError carries the per-replica outcomes of a partially
// applied write. The operation itself succeeded — Insert still returns the
// assigned global id — and consistency holds (stale replicas fail the
// epoch floor check and reads fail over), but durability is degraded:
// losing the replicas that applied the write loses it.
type DegradedWriteError struct {
	Op       string // "insert" or "delete"
	Stripe   int
	Outcomes []WriteOutcome // one per replica; nil Err = applied
}

func (e *DegradedWriteError) Error() string {
	applied, failed := 0, 0
	var first error
	for _, o := range e.Outcomes {
		if o.Err == nil {
			applied++
		} else {
			failed++
			if first == nil {
				first = fmt.Errorf("replica %d: %v", o.Replica, o.Err)
			}
		}
	}
	return fmt.Sprintf("shard: %s on stripe %d applied by %d of %d replicas (%v)",
		e.Op, e.Stripe, applied, applied+failed, first)
}

// Is matches ErrDegradedWrite, so errors.Is(err, ErrDegradedWrite)
// identifies partial writes without unpacking the outcomes.
func (e *DegradedWriteError) Is(target error) bool { return target == ErrDegradedWrite }

// Coordinator is the scatter-gather head of a sharded deployment: it owns
// the global id space, fans queries out to every stripe concurrently, and
// merges shard-local answers into global ones. Each stripe is a
// replicaSet — one replica in the plain sharded topology, several in a
// replicated one, where reads fail over between siblings and writes fan
// to all of them. Searches may run concurrently with each other and with
// updates; updates serialize on the coordinator (shard servers themselves
// publish snapshots, so their reads never block either way).
type Coordinator struct {
	stripes []*replicaSet
	m       Mapping
	opts    Options
	backend string
	dim     int

	mu    sync.RWMutex
	total int // global ids ever assigned, tombstones included
}

// NewCoordinatorWith wires a coordinator over its shards: the
// unreplicated special case (every stripe a single replica) of
// NewReplicated. The zero Options give every shard the full filter effort.
func NewCoordinatorWith(shards []Shard, opts Options) (*Coordinator, error) {
	stripes := make([][]Shard, len(shards))
	for s, sh := range shards {
		stripes[s] = []Shard{sh}
	}
	return NewReplicated(stripes, opts)
}

// NewReplicated wires a coordinator over replicated stripes: stripes[s]
// lists the interchangeable replicas serving stripe s. It validates that
// the stripes form a striped partition of one deployment — same backend
// and dimension everywhere, every reachable replica of a stripe holding
// the same record count, and per-stripe counts matching Mapping.Count —
// since a mismatched set would silently remap ids to the wrong vectors.
// Each stripe's read-your-writes floor starts at the highest epoch among
// its replicas, so a replica joining behind its siblings is routed around
// until it catches up.
//
// A replica that cannot answer Info at construction does not fail the
// wiring as long as a sibling can — the whole point of replication is
// serving through a dead replica, and that includes coming up while one
// is down. The unreachable replica starts with its breaker tripped and is
// probed back in once it returns. Only a stripe with NO reachable replica
// is a construction error.
func NewReplicated(stripes [][]Shard, opts Options) (*Coordinator, error) {
	return newReplicated(stripes, opts, breakerTuning{breakerThreshold, breakerBackoff, breakerMaxBackoff})
}

// newReplicated is NewReplicated with the breakers tuned by tune.
func newReplicated(stripes [][]Shard, opts Options, tune breakerTuning) (*Coordinator, error) {
	if len(stripes) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	c := &Coordinator{
		stripes: make([]*replicaSet, len(stripes)),
		m:       Mapping{Shards: len(stripes)},
		opts:    opts,
	}
	lens := make([]int, len(stripes))
	haveRef := false
	for s, reps := range stripes {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: stripe %d has no replicas", s)
		}
		var floor uint64
		stripeUp := false
		var down []int
		var downErrs []error
		for r, sh := range reps {
			info, err := sh.Info()
			if err != nil {
				if len(reps) == 1 {
					return nil, &ShardError{Shard: s, Err: err}
				}
				down = append(down, r)
				downErrs = append(downErrs, fmt.Errorf("replica %d: %w", r, err))
				continue
			}
			if !haveRef {
				c.backend, c.dim = info.Backend, info.Dim
				haveRef = true
			} else if info.Backend != c.backend || info.Dim != c.dim {
				return nil, fmt.Errorf("shard: shard %d runs %s/dim %d, shard 0 %s/dim %d",
					s, info.Backend, info.Dim, c.backend, c.dim)
			}
			if !stripeUp {
				lens[s] = info.N
				c.total += info.N
				stripeUp = true
			} else if info.N != lens[s] {
				return nil, fmt.Errorf("shard: stripe %d replica %d holds %d records, its siblings hold %d — replicas must be identical copies",
					s, r, info.N, lens[s])
			}
			if info.Epoch > floor {
				floor = info.Epoch
			}
		}
		if !stripeUp {
			return nil, &ShardError{Shard: s, Err: fmt.Errorf("no replica reachable: %w", errors.Join(downErrs...))}
		}
		rs := newReplicaSet(reps, tune, floor)
		now := time.Now()
		for _, r := range down {
			for i := 0; i < tune.threshold; i++ {
				rs.breakers[r].failure(now)
			}
		}
		c.stripes[s] = rs
	}
	for s, n := range lens {
		if want := c.m.count(s, c.total); n != want {
			return nil, fmt.Errorf("shard: shard %d holds %d records, a striped partition of %d needs %d",
				s, n, c.total, want)
		}
	}
	return c, nil
}

// Shards returns the stripe count.
func (c *Coordinator) Shards() int { return len(c.stripes) }

// ReplicaHealth is one replica's health as the coordinator sees it:
// breaker state plus the consecutive-failure count accumulated toward the
// next trip.
type ReplicaHealth struct {
	Stripe  int
	Replica int
	State   BreakerState
	Fails   int
}

// Health snapshots every replica's breaker, stripe-major. A dead replica
// shows open (then half-open as probes fire) and re-closes once a probe
// succeeds after it returns.
func (c *Coordinator) Health() []ReplicaHealth {
	var out []ReplicaHealth
	for s, rs := range c.stripes {
		for r, b := range rs.breakers {
			state, fails := b.snapshot()
			out = append(out, ReplicaHealth{Stripe: s, Replica: r, State: state, Fails: fails})
		}
	}
	return out
}

// Len returns the global record count, tombstones included.
func (c *Coordinator) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.total
}

// Dim returns the vector dimension of the deployment.
func (c *Coordinator) Dim() int { return c.dim }

// Backend returns the filter-index backend every shard runs.
func (c *Coordinator) Backend() string { return c.backend }

// shardOpt derives the options each shard receives: the caller's, with the
// filter effort divided across shards when the coordinator runs in
// divide-effort mode.
func (c *Coordinator) shardOpt(k int, opt core.SearchOptions) core.SearchOptions {
	if c.opts.DivideEffort {
		return opt.Partition(len(c.stripes), k)
	}
	return opt
}

// searchScratch is the pooled per-search working set of the coordinator:
// the scatter's result and error slots and the merge's cursors. Pooling it
// keeps the steady-state scatter-gather path down to the few allocations
// that escape to the caller — on a host where search is compute-bound, a
// dozen small per-query allocations are measurable against a single server
// that makes none.
type searchScratch struct {
	results []core.ShardResult
	errs    []error
	cursors []int
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func (sc *searchScratch) shards(n int) {
	if cap(sc.results) < n {
		sc.results = make([]core.ShardResult, n)
		sc.errs = make([]error, n)
		sc.cursors = make([]int, n)
	}
	sc.results = sc.results[:n]
	sc.errs = sc.errs[:n]
	sc.cursors = sc.cursors[:n]
}

func putScratch(sc *searchScratch) {
	// Drop per-query references so a pooled scratch never pins a
	// snapshot arena or wire records while idle.
	for i := range sc.results {
		sc.results[i] = core.ShardResult{}
	}
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	scratchPool.Put(sc)
}

// Search answers a k-ANNS query across all stripes: one concurrent
// scatter (each stripe picks a healthy replica, failing over and
// optionally hedging; see replicaSet.search), then a merge of the
// shard-local top-k sets into the global top-k by DCE comparisons,
// returned as global ids closest-first. A dead stripe — every replica
// failed — surfaces as a *ShardError, or, with Options.AllowPartial,
// degrades gracefully: the surviving stripes' merged answer is returned
// alongside a *PartialError naming the dead ones. Never a hang, and never
// a silently partial answer. Before any shard is asked it refuses k ≤ 0,
// as core.Server.Search does, and any refine mode but RefineDCE: the
// filter-only ablation has no records to merge by.
func (c *Coordinator) Search(tok *core.QueryToken, k int, opt core.SearchOptions) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: non-positive k %d", k)
	}
	if opt.Refine != core.RefineDCE {
		return nil, fmt.Errorf("shard: a sharded search merges by the DCE refine, not %v", opt.Refine)
	}
	if tok == nil || tok.Trapdoor == nil {
		return nil, fmt.Errorf("shard: token lacks DCE trapdoor for merge")
	}
	sc := scratchPool.Get().(*searchScratch)
	defer putScratch(sc)
	sc.shards(len(c.stripes))
	results := sc.results
	sOpt := c.shardOpt(k, opt)
	var wg sync.WaitGroup
	for s, rs := range c.stripes {
		wg.Add(1)
		go func(s int, rs *replicaSet) {
			defer wg.Done()
			results[s], sc.errs[s] = rs.search(tok, k, sOpt, c.opts.HedgeAfter)
		}(s, rs)
	}
	wg.Wait()
	var dead []int
	var deadErrs []error
	for s, err := range sc.errs {
		if err == nil {
			continue
		}
		if !c.opts.AllowPartial {
			return nil, &ShardError{Shard: s, Err: err}
		}
		dead = append(dead, s)
		deadErrs = append(deadErrs, err)
		// Keep the slot (stripe indexing feeds the Global remap); an
		// empty result contributes nothing to the merge.
		results[s] = core.ShardResult{}
	}
	if len(dead) == len(c.stripes) {
		// Nothing survived; partial results would be empty, which is
		// indistinguishable from "no neighbors". Fail loudly instead.
		return nil, &ShardError{Shard: dead[0], Err: deadErrs[0]}
	}
	ids, err := c.merge(tok.Trapdoor, k, results, sc.cursors)
	if err != nil {
		return nil, err
	}
	if len(dead) > 0 {
		return ids, &PartialError{Stripes: dead, Errs: deadErrs}
	}
	return ids, nil
}

// merge folds per-shard results into the global top-k, remapping local
// ids to global ones and ordering by the DCE comparison the refine phase
// ran, on the same record halves, so a merged answer keeps its bits.
//
// Every shard returns its list closest-first, so the global top-k is a
// k-way merge of sorted lists: k steps of (shards−1) head-to-head
// comparisons each, instead of pushing all shards·k candidates through a
// selection heap. With secure comparisons as the unit of cost, a 2-shard
// merge spends exactly k of them.
func (c *Coordinator) merge(tq *dce.Trapdoor, k int, results []core.ShardResult, cursors []int) ([]int, error) {
	// A remote shard's records are whatever it chose to send: every one
	// must be in the trapdoor's dimension.
	want := 4 * len(tq.Q)
	for s, r := range results {
		if len(r.Recs) != len(r.IDs) {
			return nil, &ShardError{Shard: s, Err: fmt.Errorf("shard: %d DCE records for %d ids", len(r.Recs), len(r.IDs))}
		}
		for i, rec := range r.Recs {
			if len(rec) != want {
				return nil, &ShardError{Shard: s, Err: fmt.Errorf("shard: record %d has %d floats, want %d", i, len(rec), want)}
			}
		}
	}

	total := 0
	for _, r := range results {
		total += len(r.IDs)
	}
	if total == 0 {
		return nil, nil
	}
	if k > total {
		k = total
	}
	// k-way merge over the sorted per-shard lists; ties resolve to the
	// lowest shard index, keeping results deterministic.
	for i := range cursors {
		cursors[i] = 0
	}
	ids := make([]int, 0, k)
	for len(ids) < k {
		best := -1
		for s := range results {
			if cursors[s] >= len(results[s].IDs) {
				continue
			}
			if best == -1 || dce.DistanceComp(results[s].Recs[cursors[s]], results[best].Recs[cursors[best]], tq) < 0 {
				best = s
			}
		}
		if best == -1 {
			break
		}
		ids = append(ids, c.m.global(best, results[best].IDs[cursors[best]]))
		cursors[best]++
	}
	return ids, nil
}

// Insert routes one encrypted vector to the stripe the next global id
// belongs to — every replica of it — and returns that global id. The
// striped-growth invariant is verified against the local id each replica
// actually assigned: a mismatch means the replica was mutated outside the
// coordinator, and the error says so rather than silently corrupting the
// global id space.
//
// The write counts once any replica applied it: the id is assigned, the
// stripe's epoch floor advances (so reads never see a pre-write snapshot
// from a replica that missed it), and replicas that failed are reported in
// a *DegradedWriteError — the write survived, but with reduced redundancy.
// Only when every replica fails is the insert void: no id is consumed and
// the *ShardError carries the first cause.
func (c *Coordinator) Insert(p *core.InsertPayload) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gid := c.total
	applied, err := c.writeStripe(gid, writeOp{name: "insert", p: p})
	if !applied {
		return 0, err
	}
	c.total++
	return gid, err
}

// Delete tombstones a global id on every replica of its owning stripe,
// with the same degraded-write contract as Insert: one applying replica
// makes the delete count (and advances the epoch floor, routing reads
// around replicas that would resurrect the id), partial application
// returns a *DegradedWriteError, total failure a *ShardError. Deletes
// serialize with every other update: two unserialized deletes of one id
// could each see one applying replica and advance the stripe's floor twice
// for one write.
func (c *Coordinator) Delete(gid int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gid < 0 || gid >= c.total {
		return fmt.Errorf("shard: delete of unknown global id %d", gid)
	}
	_, err := c.writeStripe(gid, writeOp{name: "delete"})
	return err
}

// writeStripe fans op, aimed at global id gid, to every replica of the
// stripe gid belongs to, and reports whether any replica applied it. The
// error is a *ShardError carrying the first cause when none did, a
// *DegradedWriteError when only some did, and nil when all did. Caller
// holds mu.
func (c *Coordinator) writeStripe(gid int, op writeOp) (applied bool, err error) {
	s, local := c.m.Locate(gid)
	op.local = local
	outcomes, ok := c.stripes[s].write(op)
	switch {
	case ok == 0: // every replica failed: the first cause stands for all
		return false, &ShardError{Shard: s, Err: outcomes[0].Err}
	case ok < len(outcomes):
		return true, &DegradedWriteError{Op: op.name, Stripe: s, Outcomes: outcomes}
	}
	return true, nil
}
