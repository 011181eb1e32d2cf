package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/index"
	"ppanns/internal/pq"
	"ppanns/internal/resultheap"
	"ppanns/internal/shard"
	"ppanns/internal/transport"
	"ppanns/internal/vec"
	"ppanns/internal/wal"
)

// Every replayEvery-th traced read has its token replayed against the
// layers in-process, one layer per stage, each stage replayLag replays (so
// replayEvery × replayLag reads) after the one before. Replaying at once
// would find every record the previous call just touched still in cache and
// flatter the layer; replaying every read would leave the traced reads
// themselves with colder caches than the untraced ones.
const (
	replayEvery = 4
	replayLag   = 8
	traceBlock  = 64 // operations per traced or untraced block of the single-caller pass
)

// sink keeps the kernels' results alive so the compiler keeps the calls.
var sink float64

// replayRec is one traced read's token and what replaying it against each
// layer from outside measured. With several stripes every stripe is asked
// its share in turn and the slowest one counts, as it does for the
// coordinator; counts are summed.
type replayRec struct {
	req                                      int
	tok                                      *core.QueryToken
	search, filter, refine                   time.Duration // core.Server.SearchInto and its own split
	noRefine                                 time.Duration // the same search with RefineNone
	index                                    time.Duration // the filter index alone
	local                                    time.Duration // cluster: Coordinator.Search over shard.Local
	remote                                   time.Duration // the token again over the wire: Client.Search, on cluster one stripe's SearchShard
	comparisons, candidates, indexCandidates int
}

// layerProbe replays the traced pass's tokens against the layers below the
// serving call.
type layerProbe struct {
	d       *deployment
	tr      *tracer
	stages  []func(*replayRec)
	queues  [][]*replayRec // per stage: tokens waiting their turn
	done    []*replayRec
	req     []float64          // bytes each traced read sent up, all sockets
	resp    []float64          // and got back
	local   *shard.Coordinator // cluster: the same stripes without the wire
	partOpt core.SearchOptions // what one stripe is asked: the coordinator's per-shard share
	dst     []int
	items   []resultheap.Item
	scanner pq.Scanner
	in, out int64 // socket byte counters at the previous answer
}

func newLayerProbe(d *deployment, tr *tracer) (*layerProbe, error) {
	p := &layerProbe{d: d, tr: tr, partOpt: d.opt.Partition(len(d.servers), k)}
	p.stages = []func(*replayRec){p.coreSearch, p.coreSearchNoRefine, p.indexSearch}
	if d.sp.wire {
		p.stages = append(p.stages, p.clientSearch)
	}
	if d.sp.stripes > 0 {
		members := make([]shard.Shard, len(d.servers))
		for i, s := range d.servers {
			members[i] = shard.Local{Srv: s}
		}
		var err error
		if p.local, err = shard.NewCoordinatorWith(members, shard.Options{DivideEffort: true}); err != nil {
			return nil, err
		}
		p.stages = append(p.stages, p.coordLocal, p.stripeOverWire)
	}
	p.queues = make([][]*replayRec, len(p.stages))
	p.in, p.out = d.wireBytes()
	return p, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// answered runs after every traced read: it books the bytes the read put
// on the wire, queues its token, and lets each stage replay the token that
// has waited its turn.
func (p *layerProbe) answered(req int, tok *core.QueryToken) {
	in, out := p.d.wireBytes()
	p.req = append(p.req, float64(in-p.in))
	p.resp = append(p.resp, float64(out-p.out))
	p.in, p.out = in, out
	if len(p.req)%replayEvery != 0 {
		return
	}
	rec := &replayRec{req: req, tok: tok}
	for s, stage := range p.stages {
		p.queues[s] = append(p.queues[s], rec)
		if len(p.queues[s]) <= replayLag {
			rec = nil
			break
		}
		rec, p.queues[s] = p.queues[s][0], p.queues[s][1:]
		stage(rec)
	}
	if rec != nil {
		p.done = append(p.done, rec)
	}
	p.in, p.out = p.d.wireBytes() // a replay over the wire is not the next read's traffic
}

// drain finishes the tokens still waiting when the traced pass ends.
func (p *layerProbe) drain() {
	for s := range p.stages {
		for _, rec := range p.queues[s] {
			for _, stage := range p.stages[s:] {
				stage(rec)
			}
			p.done = append(p.done, rec)
		}
		p.queues[s] = nil
	}
}

func (p *layerProbe) coreSearch(r *replayRec) {
	for _, srv := range p.d.servers {
		s := p.tr.begin("core.search", r.req, -1)
		dst, st, err := srv.SearchInto(p.dst[:0], r.tok, k, p.partOpt)
		t := p.tr.end(s)
		if err != nil {
			continue
		}
		p.dst = dst
		r.comparisons += st.Comparisons
		r.candidates += st.Candidates
		if t > r.search {
			r.search, r.filter, r.refine = t, st.FilterTime, st.RefineTime
		}
	}
}

func (p *layerProbe) coreSearchNoRefine(r *replayRec) {
	opt := p.partOpt
	opt.Refine = core.RefineNone
	for _, srv := range p.d.servers {
		s := p.tr.begin("core.search.no_refine", r.req, -1)
		p.dst, _, _ = srv.SearchInto(p.dst[:0], r.tok, k, opt)
		r.noRefine = max(r.noRefine, p.tr.end(s))
	}
}

// indexSearch asks the filter index what the server's filter phase asks
// it. On cluster-mixed these are the indexes the stripes started with; the
// servers have folded since.
func (p *layerProbe) indexSearch(r *replayRec) {
	kPrime := p.partOpt.KPrime
	ef := max(kPrime, 50)
	if p.partOpt.EfSearch > 0 {
		ef = p.partOpt.EfSearch
	}
	for _, edb := range p.d.edbs {
		s := p.tr.begin("index.search", r.req, -1)
		if p.partOpt.FilterDist == core.FilterPQ {
			p.scanner.Prepare(edb.PQ.Book, edb.PQ.Codes, r.tok.SAP)
			p.items = edb.Index.SearchIntoDist(p.items[:0], r.tok.SAP, kPrime, ef, &p.scanner)
		} else {
			p.items = edb.Index.SearchInto(p.items[:0], r.tok.SAP, kPrime, ef)
		}
		r.index = max(r.index, p.tr.end(s))
		r.indexCandidates += len(p.items)
	}
}

func (p *layerProbe) coordLocal(r *replayRec) {
	s := p.tr.begin("coord.search.local", r.req, -1)
	_, err := p.local.Search(r.tok, k, p.d.opt)
	if t := p.tr.end(s); err == nil {
		r.local = t
	}
}

func (p *layerProbe) clientSearch(r *replayRec) {
	s := p.tr.begin("client.search", r.req, -1)
	_, err := p.d.clients[0].Search(r.tok, k, p.d.opt) // caller 0's connection: idle while the single caller runs
	if t := p.tr.end(s); err == nil {
		r.remote = t
	}
}

func (p *layerProbe) stripeOverWire(r *replayRec) {
	s := p.tr.begin("client.search_shard", r.req, -1)
	_, err := p.d.remotes[0].SearchShard(r.tok, k, p.partOpt)
	if t := p.tr.end(s); err == nil {
		r.remote = t
	}
}

// medianOf is the median over the fully replayed tokens of f, in
// microseconds when f returns a duration's nanoseconds.
func (p *layerProbe) medianOf(f func(*replayRec) float64) float64 {
	xs := make([]float64, len(p.done))
	for i, r := range p.done {
		xs[i] = f(r)
	}
	return median(xs)
}

// timeBatches runs f per times in each of batches batches and returns the
// median nanoseconds per call.
func timeBatches(batches, per int, f func(i int)) float64 {
	ns := make([]float64, batches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f(i)
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(ns)
}

// sapVectors recovers the SAP ciphertexts of the whole database, in id
// order, from the (possibly striped) filter indexes.
func sapVectors(d *deployment, n int) ([][]float64, error) {
	m := shard.Mapping{Shards: len(d.edbs)}
	out := make([][]float64, n)
	for gid := range out {
		s, local := m.Locate(gid)
		v, ok := d.edbs[s].Index.Vector(local)
		if !ok {
			return nil, fmt.Errorf("stripe %d has no SAP vector at %d", s, local)
		}
		out[gid] = v
	}
	return out, nil
}

// kernelMetrics times the distance kernels at this workload's dimensions on
// the database's own ciphertexts, with scattered ids as a search sees them.
func kernelMetrics(v map[string]float64, d *deployment, sap [][]float64, tok *core.QueryToken, seed uint64) {
	r := rand.New(rand.NewPCG(seed, 0x6b65726e))
	dim := len(sap[0])
	const block = 32
	v["vec.sq_dist_ns"] = timeBatches(9, 20000, func(i int) { sink += vec.SqDist(sap[(i*7919)%len(sap)], tok.SAP) })
	v["vec.bytes_per_call"] = float64(2 * 8 * dim)

	ds := vec.DatasetFromSlices(sap)
	ids := make([][]int32, 64)
	for i := range ids {
		ids[i] = make([]int32, block)
		for j := range ids[i] {
			ids[i][j] = int32(r.IntN(len(sap)))
		}
	}
	dst := make([]float64, block)
	v["vec.sq_dist_block_ns"] = timeBatches(9, 2000, func(i int) {
		dst = ds.SqDistBlock(dst, tok.SAP, ids[i%len(ids)])
		sink += dst[0]
	}) / block

	edb := d.edbs[0]
	if edb.PQ != nil {
		m := edb.PQ.Book.M()
		lut := make([]float64, m*pq.LUTStride)
		edb.PQ.Book.FillLUT(lut, tok.SAP)
		codes := edb.PQ.Codes.Raw()
		v["vec.pq_scan_block_ns"] = timeBatches(9, 5000, func(i int) {
			vec.PQScanBlock(dst, codes, m, lut, ids[i%len(ids)])
			sink += dst[0]
		}) / block
		v["pq.bytes_per_point"] = float64(edb.PQ.SizeBytes()) / float64(edb.PQ.Codes.Len())
	}

	store := edb.DCE
	n := store.Len()
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{r.IntN(n), r.IntN(n)}
	}
	v["dce.dist_comp_ns"] = timeBatches(9, 5000, func(i int) {
		p := pairs[i%len(pairs)]
		sink += store.DistanceComp(p[0], p[1], tok.Trapdoor)
	})
	// One comparison reads o's P1|P2, p's P3|P4 and the trapdoor.
	v["dce.bytes_per_comp"] = float64(8 * (4*store.CtDim() + len(tok.Trapdoor.Q)))
}

// buildMetrics times the set-up work of the index and pq layers on their
// own, on the stored SAP vectors, and takes them out of EncryptDatabase's
// time to leave the owner's.
func buildMetrics(v map[string]float64, d *deployment, sap [][]float64, seed uint64) error {
	sp := d.sp
	t0 := time.Now()
	if _, err := index.Build(sp.index, sap, index.Options{Dim: len(sap[0]), Seed: seed}); err != nil {
		return fmt.Errorf("index.Build: %w", err)
	}
	v["index.build_s"] = time.Since(t0).Seconds()
	if sp.pqM > 0 {
		t0 = time.Now()
		if _, err := pq.Build(sap, pq.TrainConfig{M: sp.pqM, Seed: seed}); err != nil {
			return fmt.Errorf("pq.Build: %w", err)
		}
		v["pq.train_s"] = time.Since(t0).Seconds()
	}
	v["owner.encrypt_s"] = d.steps["encrypt_database"] - v["index.build_s"] - v["pq.train_s"]
	v["shard.split_s"] = d.steps["split"]
	return nil
}

// wireMetrics times the smallest round trip on a connection of its own.
func wireMetrics(v map[string]float64, d *deployment) error {
	if len(d.lns) == 0 {
		return nil
	}
	c, err := transport.Dial(d.lns[0].Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	var rtErr error
	v["transport.ping_us"] = timeBatches(5, 100, func(int) {
		if _, err := c.Len(); err != nil {
			rtErr = err
		}
	}) / 1e3
	return rtErr
}

// walMetrics times the log on its own in a fresh directory: an insert-sized
// record appended and committed under fsync-per-write, and a checkpoint of
// stripe 0's database.
func walMetrics(v map[string]float64, d *deployment, dir string) error {
	if d.sp.stripes == 0 {
		return nil
	}
	edb := d.edbs[0]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncPolicy{Every: 1}})
	if err != nil {
		return err
	}
	defer log.Close()
	const writes = 100
	payload := make([]byte, 8*(edb.Dim+4*edb.DCE.CtDim()))
	var appendErr error
	durs := make([]float64, writes)
	for i := range durs {
		t0 := time.Now()
		lsn, err := log.Append(wal.KindInsert, uint64(i+1), payload)
		if err == nil {
			err = log.Commit(lsn)
		}
		if err != nil {
			appendErr = err
		}
		durs[i] = us(time.Since(t0))
	}
	if appendErr != nil {
		return appendErr
	}
	v["wal.append_commit_us"] = median(durs)
	v["wal.bytes_per_write"] = float64(log.Stats().Bytes) / writes

	b := wal.Barrier{Epoch: writes, Gen: 1, Records: uint64(edb.Len())}
	t0 := time.Now()
	if err := log.Checkpoint(b, edb.Save); err != nil {
		return err
	}
	v["wal.checkpoint_s"] = time.Since(t0).Seconds()
	fi, err := os.Stat(filepath.Join(dir, wal.CheckpointName(b.Epoch, b.Gen)))
	if err != nil {
		return err
	}
	v["wal.checkpoint_bytes"] = float64(fi.Size())
	return nil
}

// writePathMetrics drives one server's write path directly, once the
// workload is done with it: compactAt-1 inserts with compaction manual, a
// search over the full delta, the deletes, and the fold. On cluster-mixed
// the server is a recovered WAL-backed stripe, so its inserts and deletes
// include the fsync and its fold the checkpoint; there every other insert
// goes through a transport.Client instead, and the difference of the two
// medians — taken turn by turn, so the disk is in the same mood for both —
// is the wire's share of an insert.
func writePathMetrics(v map[string]float64, d *deployment, vectors [][]float64) error {
	srv := d.servers[0]
	insert := [2]func(*core.InsertPayload) (int, error){srv.Insert, srv.Insert}
	if d.sp.stripes > 0 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			transport.Serve(l, srv)
		}()
		defer func() {
			l.Close()
			<-served
		}()
		c, err := transport.Dial(l.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		insert[1] = c.Insert
	}
	const writes = compactAt - 1
	var enc, del, search []float64
	var ins [2][]float64 // direct, and over the wire where there is one
	ids := make([]int, 0, writes)
	for i, vecIn := range vectors[:writes] {
		t0 := time.Now()
		p, err := d.owner.EncryptVector(vecIn)
		if err != nil {
			return err
		}
		enc = append(enc, us(time.Since(t0)))
		t0 = time.Now()
		id, err := insert[i%2](p)
		if err != nil {
			return err
		}
		ins[i%2] = append(ins[i%2], us(time.Since(t0)))
		ids = append(ids, id)
	}
	opt := d.opt.Partition(len(d.servers), k)
	var dst []int
	for _, q := range vectors[:min(100, len(vectors))] {
		tok, err := d.users[0].Query(q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if dst, _, err = srv.SearchInto(dst[:0], tok, k, opt); err != nil {
			return err
		}
		search = append(search, us(time.Since(t0)))
	}
	for _, id := range ids {
		t0 := time.Now()
		if err := srv.Delete(id); err != nil {
			return err
		}
		del = append(del, us(time.Since(t0)))
	}
	t0 := time.Now()
	if err := srv.Compact(); err != nil {
		return err
	}
	v["core.compact_s"] = time.Since(t0).Seconds()
	v["core.compact_pause_us"] = us(srv.CompactionStats().LastPause)
	v["owner.encrypt_vector_us"] = median(enc)
	if d.sp.stripes > 0 {
		v["core.insert_us"] = median(ins[0])
		v["transport.insert_rtt_us"] = median(ins[1]) - median(ins[0])
	} else {
		v["core.insert_us"] = median(append(ins[0], ins[1]...))
	}
	v["core.delete_us"] = median(del)
	v["core.search_full_delta_us"] = median(search)
	return nil
}

// allocsPerSearch counts heap allocations per steady-state SearchInto.
func allocsPerSearch(srv *core.Server, tok *core.QueryToken, opt core.SearchOptions) float64 {
	const runs = 200
	var dst []int
	dst, _, _ = srv.SearchInto(dst, tok, k, opt)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		dst, _, _ = srv.SearchInto(dst[:0], tok, k, opt)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / runs
}

// runTraced is the per-layer run. A quarter of the time goes to the
// untraced closed loop of all callers, for the load metrics no bound holds
// on this host; half to one caller alternating untraced and traced blocks
// of the same schedule, every fourth traced token replayed against the
// layers below the serving call; the rest to each layer's public functions
// on their own.
func runTraced(cfg config) (*result, error) {
	sp := cfg.sp
	res := &result{values: map[string]float64{}}
	v := res.values
	in, err := makeInputs(sp, cfg.seed, poolSize(cfg.seconds))
	if err != nil {
		return nil, err
	}
	walRoot, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	d, err := setUp(sp, in.data, cfg.seed, numCallers(), walRoot)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { d.close() }()
	// The index and pq builds again on their own, straight after the set-up
	// they are subtracted from, while the host is in the same mood.
	sap, err := sapVectors(d, sp.n)
	if err != nil {
		return nil, err
	}
	if err := buildMetrics(v, d, sap, cfg.seed); err != nil {
		return nil, err
	}

	live := &liveSet{n: sp.n}
	callers := newCallers(d, in, live, cfg.seed, numCallers())
	recall := recallPass(callers, in, in.truth)
	measureLoad(res, d, callers, time.Duration(cfg.seconds)*time.Second/4)

	// The single caller is the last one, the mixed workload's writer. It
	// alternates blocks of traced and untraced operations, so that whatever
	// else the process is doing (the mixed workload's folds and checkpoints)
	// weighs on both alike and their difference is the tracing.
	c := callers[len(callers)-1]
	tr := newTracer()
	probe, err := newLayerProbe(d, tr)
	if err != nil {
		return nil, err
	}
	var untracedReads []float64
	start := time.Now()
	for i := 0; time.Since(start) < time.Duration(cfg.seconds)*time.Second/2; i++ {
		traced := i/traceBlock%2 == 1
		if c.tr, c.answered = nil, nil; traced {
			c.tr, c.answered = tr, probe.answered
		}
		c.do(start)
		if last := c.samples[len(c.samples)-1]; !traced && last.kind == opRead {
			untracedReads = append(untracedReads, last.us)
		}
	}
	c.tr, c.answered = nil, nil
	probe.drain()
	untraced := median(untracedReads)
	if err := tr.write(tracePath(cfg)); err != nil {
		return nil, err
	}

	dur := byName(tr.spans, func(i int) int64 { return tr.spans[i].End - tr.spans[i].Start })
	usOf := func(f func(*replayRec) time.Duration) float64 {
		return probe.medianOf(func(r *replayRec) float64 { return us(f(r)) })
	}
	v["user.token_us"] = median(dur["user.token"])
	v["core.search_us"] = usOf(func(r *replayRec) time.Duration { return r.search })
	v["core.filter_us"] = usOf(func(r *replayRec) time.Duration { return r.filter })
	v["core.refine_us"] = usOf(func(r *replayRec) time.Duration { return r.refine })
	v["core.refine_delta_us"] = usOf(func(r *replayRec) time.Duration { return r.search - r.noRefine })
	v["core.exec_overhead_us"] = usOf(func(r *replayRec) time.Duration { return r.noRefine - r.index })
	v["index.search_us"] = usOf(func(r *replayRec) time.Duration { return r.index })
	v["core.comparisons"] = probe.medianOf(func(r *replayRec) float64 { return float64(r.comparisons) })
	v["core.candidates"] = probe.medianOf(func(r *replayRec) float64 { return float64(r.candidates) })
	v["index.candidates"] = probe.medianOf(func(r *replayRec) float64 { return float64(r.indexCandidates) })
	v["transport.req_bytes"], v["transport.resp_bytes"] = median(probe.req), median(probe.resp)
	v["transport.wire_bytes_per_query"] = v["transport.req_bytes"] + v["transport.resp_bytes"]
	for _, g := range folds(d) {
		v["core.folds"] += float64(g)
	}
	if sp.wire || sp.stripes > 0 {
		// The same token over the wire against the server's own search
		// in-process: on cluster-mixed one stripe's SearchShard against the
		// slower stripe (the stripes are the same size), so the difference is
		// the wire's and the merge material's.
		v["transport.search_rtt_us"] = usOf(func(r *replayRec) time.Duration { return r.remote - r.search })
	}
	if sp.stripes > 0 {
		v["shard.local_overhead_us"] = usOf(func(r *replayRec) time.Duration { return r.local - r.search })
		v["shard.remote_search_us"] = median(dur["serve"])
		v["transport.shard_resp_bytes"] = v["transport.resp_bytes"] / float64(sp.stripes)
		v["insert_p50_us"] = median(dur["insert"])
	}

	// The ledger: do the layers, each timed on its own outside the query it
	// replays, add up to what the caller saw? Without a socket or a
	// coordinator their terms are 0.
	traced := median(dur["query"])
	ledger := []string{"user.token_us", "index.search_us", "core.exec_overhead_us", "core.refine_us",
		"transport.search_rtt_us", "shard.local_overhead_us"}
	var sum float64
	for _, name := range ledger {
		sum += v[name]
	}
	v["ledger.e2e_p50_us"] = traced
	v["ledger.layer_sum_us"] = sum
	v["ledger.residual_frac"] = (traced - sum) / traced
	v["ledger.trace_overhead_frac"] = (traced - untraced) / untraced
	res.note("single caller: p50 %.1f us untraced, %.1f us traced (%d spans, %d tokens replayed)",
		untraced, traced, len(tr.spans), len(probe.done))
	for _, name := range ledger {
		res.note("ledger: %-26s %9.1f us  %5.1f %%", name, v[name], 100*v[name]/traced)
	}
	res.note("ledger: %-26s %9.1f us  %5.1f %%", "residual", traced-sum, 100*(traced-sum)/traced)
	st := selfTimes(tr.spans)
	self := byName(tr.spans, func(i int) int64 { return st[i] })
	res.note("query span self time (the benchmark's own loop): median %.2f us", median(self["query"]))

	if err := wireMetrics(v, d); err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}

	// Correctness, as in the end-to-end run.
	if sp.stripes > 0 {
		recall = recallPass(callers, in, liveTruth(in, live))
	}
	res.absorb(callers)
	if recall < recallFloor {
		res.violate("recall@10 %.4f is below the floor %.2f", recall, recallFloor)
	}
	if sp.stripes > 0 {
		v["wal.open_s"] = checkRecovery(res, d, in, live)
	}

	// The layers on their own, now that nothing runs in the background
	// (the recovered stripes fold only when asked), and last the write
	// path, on a server the workload no longer needs.
	tok, err := d.users[0].Query(in.queries[0])
	if err != nil {
		return nil, err
	}
	v["user.token_bytes"] = float64(8 * (len(tok.SAP) + len(tok.Trapdoor.Q)))
	kernelMetrics(v, d, sap, tok, cfg.seed)
	v["core.allocs_per_op"] = allocsPerSearch(d.servers[0], tok, probe.partOpt)
	if err := walMetrics(v, d, filepath.Join(walRoot, "wal-probe")); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := writePathMetrics(v, d, in.queries); err != nil {
		return nil, fmt.Errorf("write-path probe: %w", err)
	}
	if sp.stripes == 0 {
		v["core.folds"] = float64(d.servers[0].CompactionStats().Generation)
	}
	return res, nil
}
