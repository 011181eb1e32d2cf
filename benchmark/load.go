package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
)

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one step of a caller's schedule: a kind, and for reads the index of
// the query among the distinct queries.
type op struct {
	kind  opKind
	query uint16
}

// schedule returns one period of caller's operations; callers cycle
// through it until their time is up. Every caller reads the distinct
// queries in its own seeded order. On the mixed workload caller 0 only
// reads and the last caller does 80 % reads, 10 % inserts and 10 % deletes,
// shuffled, so reads are 90 % overall and the live size stays put.
func schedule(sp spec, seed uint64, caller, callers int) []op {
	r := rand.New(rand.NewPCG(seed, uint64(caller)))
	ops := make([]op, sp.queries)
	for i, q := range r.Perm(sp.queries) {
		ops[i].query = uint16(q)
	}
	if sp.stripes > 0 && caller == callers-1 {
		tenth := len(ops) / 10
		for i := range ops {
			switch {
			case i < tenth:
				ops[i].kind = opInsert
			case i < 2*tenth:
				ops[i].kind = opDelete
			}
		}
		r.Shuffle(len(ops), func(a, b int) { ops[a].kind, ops[b].kind = ops[b].kind, ops[a].kind })
	}
	return ops
}

// sample is one completed operation: when it ended (seconds since the phase
// began) and how long the caller waited for it.
type sample struct {
	kind opKind
	end  float64
	us   float64
}

// liveSet tracks what the mixed workload has written. Deletes take the
// oldest id, so the deleted ids are exactly [0, deleted); inserts receive
// ids n, n+1, … in pool order. Only the writing caller stores; readers load
// deleted before a query (an id below it must not come back) and inserted
// after it (an id above n+inserted cannot exist; the one at n+inserted may,
// while its insert is applied but not yet acknowledged).
type liveSet struct {
	n        int
	deleted  atomic.Int64
	inserted atomic.Int64
}

// checkIDs counts what is wrong with one answer: not k ids, an id out of
// range or returned twice, or an id whose delete was acknowledged before
// the query was sent. 0 means the answer has the right shape.
func checkIDs(ids []int, floor, limit int) int {
	bad := 0
	if len(ids) != k {
		bad++
	}
	for i, id := range ids {
		if id < floor || id >= limit {
			bad++
		}
		for _, prev := range ids[:i] {
			if prev == id {
				bad++
			}
		}
	}
	return bad
}

// caller is one closed-loop client: it sends its next operation only when
// the previous one has been answered.
type caller struct {
	id      int
	d       *deployment
	in      *inputs
	live    *liveSet
	ops     []op
	next    int // position in the schedule, kept across phases
	samples []sample
	// tr, when set, receives a span around every call into a layer, and
	// answered is then told each read's token once its answer is in.
	tr       *tracer
	answered func(req int, tok *core.QueryToken)
	// attempted and failed count every operation this caller ever sent,
	// timed or not; issues keeps the first few failures for the report.
	attempted, failed int
	issues            []string
}

func (c *caller) fail(format string, args ...any) {
	c.failed++
	if len(c.issues) < 5 {
		c.issues = append(c.issues, fmt.Sprintf(format, args...))
	}
}

// query is the user-visible read: plaintext query in, checked ids out.
func (c *caller) query(q []float64) []int {
	c.attempted++
	floor := int(c.live.deleted.Load())
	root := c.tr.begin("query", c.attempted, -1)
	s := c.tr.begin("user.token", c.attempted, root)
	tok, err := c.d.users[c.id].Query(q)
	c.tr.end(s)
	if err != nil {
		c.fail("User.Query: %v", err)
		return nil
	}
	s = c.tr.begin("serve", c.attempted, root)
	ids, err := c.d.search(c.id, tok)
	c.tr.end(s)
	c.tr.end(root)
	if err != nil {
		c.fail("search: %v", err)
		return nil
	}
	if c.answered != nil {
		c.answered(c.attempted, tok)
	}
	if bad := checkIDs(ids, floor, c.live.n+int(c.live.inserted.Load())+1); bad > 0 {
		c.fail("answer %v has %d defects (deleted below %d)", ids, bad, floor)
	}
	return ids
}

// insert is the data owner's write: plaintext vector in, durable ack out.
func (c *caller) insert() {
	c.attempted++
	i := int(c.live.inserted.Load())
	if i >= len(c.in.pool) {
		c.fail("insert pool of %d exhausted", len(c.in.pool))
		return
	}
	root := c.tr.begin("insert", c.attempted, -1)
	s := c.tr.begin("owner.encrypt_vector", c.attempted, root)
	p, err := c.d.owner.EncryptVector(c.in.pool[i])
	c.tr.end(s)
	if err != nil {
		c.fail("EncryptVector: %v", err)
		return
	}
	s = c.tr.begin("coord.insert", c.attempted, root)
	gid, err := c.d.coord.Insert(p)
	c.tr.end(s)
	c.tr.end(root)
	if err != nil || gid != c.live.n+i {
		c.fail("Coordinator.Insert: id %d (want %d), err %v", gid, c.live.n+i, err)
		return
	}
	c.live.inserted.Store(int64(i + 1))
}

func (c *caller) delete() {
	c.attempted++
	gid := int(c.live.deleted.Load())
	s := c.tr.begin("coord.delete", c.attempted, -1)
	err := c.d.coord.Delete(gid)
	c.tr.end(s)
	if err != nil {
		c.fail("Coordinator.Delete(%d): %v", gid, err)
		return
	}
	c.live.deleted.Store(int64(gid + 1))
}

// do runs the caller's next scheduled operation and records it.
func (c *caller) do(start time.Time) {
	o := c.ops[c.next%len(c.ops)]
	c.next++
	t0 := time.Now()
	switch o.kind {
	case opRead:
		c.query(c.in.queries[o.query])
	case opInsert:
		c.insert()
	case opDelete:
		c.delete()
	}
	end := time.Now()
	c.samples = append(c.samples, sample{kind: o.kind, end: end.Sub(start).Seconds(), us: float64(end.Sub(t0).Nanoseconds()) / 1e3})
}

// runClosedLoop lets every caller work through its schedule for dur and
// returns their samples pooled, with the phase's true length in seconds.
func runClosedLoop(callers []*caller, dur time.Duration) ([]sample, float64) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range callers {
		c.samples = c.samples[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				c.do(start)
			}
		}()
	}
	wg.Wait()
	total := time.Since(start).Seconds()
	var all []sample
	for _, c := range callers {
		all = append(all, c.samples...)
	}
	return all, total
}

// recallPass sends every distinct query once, split across the callers,
// and returns mean recall@10 against truth. It is the untimed warm-up of
// the read-only workloads and the final check of the mixed one.
func recallPass(callers []*caller, in *inputs, truth [][]int) float64 {
	got := make([][]int, len(in.queries))
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c.id; i < len(in.queries); i += len(callers) {
				got[i] = c.query(in.queries[i])
			}
		}()
	}
	wg.Wait()
	return dataset.MeanRecall(got, truth)
}

// latencies returns the ascending latencies of the samples of one kind.
func latencies(samples []sample, kind opKind) []float64 {
	var us []float64
	for _, s := range samples {
		if s.kind == kind {
			us = append(us, s.us)
		}
	}
	sort.Float64s(us)
	return us
}
