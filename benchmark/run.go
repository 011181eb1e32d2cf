package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/shard"
)

const (
	setupReps   = 5   // set-ups per run when they are cheap; setup_s and mem_mb are their medians
	setupBudget = 9.0 // seconds: no further set-up starts if it would end beyond this
)

// config is one invocation: a workload, a seed and a length.
type config struct {
	sp      spec
	seed    uint64
	seconds int
	outDir  string // WAL directories and trace files go here
}

// result is what one run measured and whether its answers were right.
type result struct {
	values            map[string]float64
	attempted, failed int
	violations        []string // why the run is not correct; empty when it is
	notes             []string // sample counts and spreads, for the reader
}

func (r *result) correct() bool { return r.failed == 0 && len(r.violations) == 0 }

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb adds the callers' counts and first failures to the result.
func (r *result) absorb(callers []*caller) {
	for _, c := range callers {
		r.attempted += c.attempted
		r.failed += c.failed
		r.violations = append(r.violations, c.issues...)
	}
}

func numCallers() int { return min(maxClients, runtime.NumCPU()) }

// poolSize is how many vectors the mixed workload may insert: more than a
// caller that spends a tenth of its operations on fsynced inserts can use.
func poolSize(seconds int) int { return 1000 * seconds }

func heapInUseMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

func newCallers(d *deployment, in *inputs, live *liveSet, seed uint64, n int) []*caller {
	callers := make([]*caller, n)
	for i := range callers {
		callers[i] = &caller{id: i, d: d, in: in, live: live, ops: schedule(d.sp, seed, i, n)}
	}
	return callers
}

// runEndToEnd measures what the user, the operator and the owner see, with
// tracing off.
func runEndToEnd(cfg config) (*result, error) {
	sp := cfg.sp
	res := &result{values: map[string]float64{}}
	in, err := makeInputs(sp, cfg.seed, poolSize(cfg.seconds))
	if err != nil {
		return nil, err
	}
	walRoot, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)

	// Set-up, several times while it is cheap: one sample of a 2 s set-up
	// is too noisy to hold a bound.
	var d *deployment
	var setups, mems []float64
	for spent := 0.0; ; {
		if d != nil {
			d.close()
			d = nil
		}
		before := heapInUseMiB()
		t0 := time.Now()
		d, err = setUp(sp, in.data, cfg.seed, numCallers(), walRoot)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(t0).Seconds()
		setups = append(setups, s)
		mems = append(mems, heapInUseMiB()-before)
		spent += s
		if len(setups) == setupReps || spent+s > setupBudget {
			break
		}
	}
	defer func() { d.close() }()
	res.values["setup_s"] = median(setups)
	res.values["mem_mb"] = median(mems)
	res.note("set-ups: %d, seconds %.3f", len(setups), setups)

	live := &liveSet{n: sp.n}
	callers := newCallers(d, in, live, cfg.seed, numCallers())

	// Untimed pass over the distinct queries: warms caches and pools, and
	// on read-only workloads is the recall check.
	recall := recallPass(callers, in, in.truth)

	measureLoad(res, d, callers, time.Duration(cfg.seconds)*time.Second)
	if sp.stripes > 0 {
		recall = recallPass(callers, in, liveTruth(in, live))
	}
	res.values["recall_at_10"] = recall
	res.absorb(callers)
	if recall < recallFloor {
		res.violate("recall@10 %.4f is below the floor %.2f", recall, recallFloor)
	}
	if sp.stripes > 0 {
		checkRecovery(res, d, in, live)
	}
	return res, nil
}

// measureLoad runs the closed loop for dur and books what the callers saw:
// completed operations per second and the read latencies, pooled over the
// callers, with their sample counts and spread.
func measureLoad(res *result, d *deployment, callers []*caller, dur time.Duration) {
	samples, total := runClosedLoop(callers, dur)
	reads := latencies(samples, opRead)
	res.values["query_p50_us"] = percentile(reads, 50)
	res.values["query_p99_us"] = percentile(reads, 99)
	rates := windowRates(samples, total, windows)
	if d.sp.stripes == 0 {
		res.values["qps"] = median(rates)
	} else {
		// The trajectory is the workload: folds and checkpoints land where
		// they land, so the rate is that of the whole run.
		res.values["qps"] = float64(len(samples)) / total
		inserts := latencies(samples, opInsert)
		res.note("writes: %d inserts (p50 %.0f us), %d deletes; folds per stripe %v",
			len(inserts), percentile(inserts, 50), len(latencies(samples, opDelete)), folds(d))
	}
	res.note("load: %d reads over %.2f s by %d callers; highest percentile with 10 samples beyond it: p%g",
		len(reads), total, len(callers), tailPercentile(len(reads)))
	res.note("ops/s per window %.0f, window IQR %.2f %% of the median", rates, 100*iqrFrac(rates))
}

// windowRates cuts a phase of total seconds into w equal windows and
// returns the operations completed per second in each.
func windowRates(samples []sample, total float64, w int) []float64 {
	width := total / float64(w)
	rates := make([]float64, w)
	for _, s := range samples {
		rates[min(int(s.end/width), w-1)]++
	}
	for i := range rates {
		rates[i] /= width
	}
	return rates
}

func folds(d *deployment) []uint64 {
	gens := make([]uint64, len(d.servers))
	for i, s := range d.servers {
		gens[i] = s.CompactionStats().Generation
	}
	return gens
}

// liveTruth is the exact answer to every distinct query over what the
// mixed workload left live: ids [deleted, n+inserted), which are contiguous
// because deletes take the oldest id and inserts the next one.
func liveTruth(in *inputs, live *liveSet) [][]int {
	deleted, inserted := int(live.deleted.Load()), int(live.inserted.Load())
	all := append(append([][]float64(nil), in.data...), in.pool[:inserted]...)
	d := dataset.Data{Train: all[deleted:], Queries: in.queries}
	truth := d.GroundTruth(k)
	for _, row := range truth {
		for i := range row {
			row[i] += deleted
		}
	}
	return truth
}

// checkRecovery closes every stripe, reopens it from its WAL directory and
// requires that no acknowledged write was lost: same epoch and counts,
// every acknowledged insert present, every acknowledged delete gone, and
// searches over the recovered stripes return nothing deleted. It leaves the
// reopened servers (compaction manual) in d and returns the seconds the
// slowest OpenServer took.
func checkRecovery(res *result, d *deployment, in *inputs, live *liveSet) float64 {
	type shape struct {
		epoch     uint64
		len, live int
	}
	before := make([]shape, len(d.servers))
	d.hangUp()
	for i, s := range d.servers {
		if err := s.Close(); err != nil {
			res.violate("stripe %d: Close: %v", i, err)
		}
		cs := s.CompactionStats()
		before[i] = shape{cs.Epoch, cs.Len, cs.Live}
	}
	var slowest float64
	members := make([]shard.Shard, len(d.servers))
	for i, wd := range d.walDirs {
		t0 := time.Now()
		srv, _, err := core.OpenServer(wd, walOptions(wd, -1))
		if err != nil {
			res.violate("stripe %d: OpenServer: %v", i, err)
			return slowest
		}
		slowest = max(slowest, time.Since(t0).Seconds())
		d.servers[i] = srv
		members[i] = shard.Local{Srv: srv}
		if got := (shape{srv.Epoch(), srv.Len(), srv.Live()}); got != before[i] {
			res.violate("stripe %d recovered as %+v, was %+v when closed", i, got, before[i])
		}
	}
	deleted, inserted := int(live.deleted.Load()), int(live.inserted.Load())
	m := shard.Mapping{Shards: len(d.servers)}
	lost := 0
	for gid := 0; gid < live.n+inserted; gid++ {
		s, local := m.Locate(gid)
		srv := d.servers[s]
		if local >= srv.Len() || srv.Deleted(local) != (gid < deleted) {
			lost++
		}
	}
	if lost > 0 {
		res.violate("%d acknowledged writes lost across recovery", lost)
	}
	coord, err := shard.NewCoordinatorWith(members, shard.Options{DivideEffort: true})
	if err != nil {
		res.violate("coordinator over recovered stripes: %v", err)
		return slowest
	}
	user := d.users[0]
	for _, q := range in.queries[:min(100, len(in.queries))] {
		res.attempted++
		tok, err := user.Query(q)
		if err != nil {
			res.failed++
			continue
		}
		ids, err := coord.Search(tok, k, d.opt)
		if err != nil || checkIDs(ids, deleted, live.n+inserted) > 0 {
			res.failed++
			res.violate("after recovery: answer %v, err %v (deleted below %d)", ids, err, deleted)
		}
	}
	return slowest
}

func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.sp.name+".json")
}
