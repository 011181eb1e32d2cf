package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and
// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g, want 1, 4.5", q1, q3)
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrFrac(1..10) = %g, want 1", got)
	}
}

func TestWindowMedian(t *testing.T) {
	// 6 windows of 1 s with 10, 20, 30, 40, 50 and 300 operations.
	var samples []sample
	for w, n := range []int{10, 20, 30, 40, 50, 300} {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{kind: opRead, end: float64(w) + float64(i)/float64(n), us: 10})
		}
	}
	samples = append(samples, sample{kind: opRead, end: 6.0, us: 10}) // on the closing edge: the last window's
	rates := windowRates(samples, 6, 6)
	if want := []float64{10, 20, 30, 40, 50, 301}; !reflect.DeepEqual(rates, want) {
		t.Errorf("rates = %v, want %v", rates, want)
	}
	if got := median(rates); got != 35 {
		t.Errorf("median window = %g, want 35: one stalled or inflated window must not move it", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 50},
		{Name: "b", Parent: 0, Start: 30, End: 70},  // overlaps a: together they cover 10..70
		{Name: "c", Parent: 0, Start: 90, End: 120}, // sticks out of the parent: only 90..100 counts
		{Name: "a1", Parent: 1, Start: 10, End: 20},
		{Name: "inside-b", Parent: 0, Start: 40, End: 60}, // wholly covered already
	}
	want := []int64{100 - 60 - 10, 40 - 10, 40, 30, 10, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var tr *tracer
	if id := tr.begin("x", 0, -1); id != -1 || tr.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestCountingListener(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 1000)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(buf[:300])
		done <- err
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if in, out := cl.in.Load(), cl.out.Load(); in != 1000 || out != 300 {
		t.Errorf("counted %d in, %d out; want 1000, 300", in, out)
	}
}

func TestCheckIDs(t *testing.T) {
	good := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if bad := checkIDs(good, 5, 15); bad != 0 {
		t.Errorf("good answer has %d defects", bad)
	}
	for name, c := range map[string]struct {
		ids          []int
		floor, limit int
	}{
		"short":     {good[:9], 0, 100},
		"duplicate": {[]int{5, 6, 7, 8, 9, 10, 11, 12, 13, 5}, 0, 100},
		"deleted":   {good, 6, 100},
		"unknown":   {good, 0, 14},
	} {
		if checkIDs(c.ids, c.floor, c.limit) == 0 {
			t.Errorf("%s answer passed the shape check", name)
		}
	}
}

// The schedule and the query set are a function of the seed alone. (The
// ciphertexts are not yet: EncryptDatabase is not seed-stable on more than
// one core, ROADMAP P0, so recall may wobble by ≈0.005 between runs.)
func TestScheduleIsSeedDetermined(t *testing.T) {
	sp, err := specByName("cluster-mixed")
	if err != nil {
		t.Fatal(err)
	}
	sp.n = 500
	a, b := schedule(sp, 7, 1, 2), schedule(sp, 7, 1, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, schedule(sp, 8, 1, 2)) {
		t.Error("different seed, same schedule")
	}
	counts := map[opKind]int{}
	for _, o := range a {
		counts[o.kind]++
	}
	if counts[opRead] != 800 || counts[opInsert] != 100 || counts[opDelete] != 100 {
		t.Errorf("writer's period is %v, want 800 reads, 100 inserts, 100 deletes", counts)
	}
	for _, o := range schedule(sp, 7, 0, 2) {
		if o.kind != opRead {
			t.Fatal("caller 0 of the mixed workload must only read")
		}
	}
	in1, err := makeInputs(sp, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := makeInputs(sp, 7, 50)
	if !reflect.DeepEqual(in1.queries, in2.queries) || !reflect.DeepEqual(in1.data, in2.data) ||
		!reflect.DeepEqual(in1.pool, in2.pool) || !reflect.DeepEqual(in1.truth, in2.truth) {
		t.Error("same seed, different inputs")
	}
	if len(in1.data) != 500 || len(in1.pool) != 50 {
		t.Errorf("inputs hold %d vectors and a pool of %d, want 500 and 50", len(in1.data), len(in1.pool))
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in metrics.go
// and workloads.go are what the program emits. They must say the same.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the spec %q", i, w.Name, specs[i].name)
		}
	}
	var e2e, pl []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range doc.PerLayer {
		pl = append(pl, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", pl, perLayer)
	}
}

// wireDeep stands in for wire-gist, whose d=960 key alone takes ≈9 s to
// generate: the same path — one server behind transport.Serve, a
// transport.Client per caller — at d=96.
const wireDeep = "wire-deep"

func smokeConfig(t *testing.T, name string) config {
	base := name
	if name == wireDeep {
		base = "embed-deep"
	}
	sp, err := specByName(base)
	if err != nil {
		t.Fatal(err)
	}
	sp.name, sp.wire = name, name == wireDeep
	sp.n = smokeN / 2 // tier-1 has 30 s for this package, also on a slow day of the host
	return config{sp: sp, seed: 3, seconds: 1, outDir: t.TempDir()}
}

func requireMetrics(t *testing.T, res *result, defs []metricDef, mayBeZero bool) {
	t.Helper()
	if !res.correct() {
		t.Errorf("run is not correct: %d of %d failed, %v", res.failed, res.attempted, res.violations)
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!mayBeZero && (!ok || v <= 0)) {
			t.Errorf("%s = %v", d.name, v)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range []string{"embed-deep", wireDeep, "scale-pq", "cluster-mixed"} {
		res, err := runEndToEnd(smokeConfig(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMetrics(t, res, endToEnd, false)
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"embed-deep", wireDeep, "cluster-mixed"} {
		cfg := smokeConfig(t, name)
		cfg.seconds = 2
		res, err := runTraced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMetrics(t, res, perLayer, true)
		for _, m := range []string{"user.token_us", "core.search_us", "index.search_us", "dce.dist_comp_ns", "core.compact_s"} {
			if res.values[m] <= 0 {
				t.Errorf("%s: %s = %v", name, m, res.values[m])
			}
		}
		if name == wireDeep {
			for _, m := range []string{"transport.search_rtt_us", "transport.ping_us", "transport.req_bytes", "transport.resp_bytes"} {
				if res.values[m] <= 0 {
					t.Errorf("%s: %s = %v", name, m, res.values[m])
				}
			}
		}
		if name == "cluster-mixed" {
			for _, m := range []string{"wal.append_commit_us", "wal.open_s", "transport.wire_bytes_per_query", "shard.remote_search_us", "insert_p50_us"} {
				if res.values[m] <= 0 {
					t.Errorf("%s: %s = %v", name, m, res.values[m])
				}
			}
		}
		if _, err := os.Stat(tracePath(cfg)); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}

// Breaking the scheme on purpose must fail the run: with k′ = k the refine
// phase has nothing to choose from and recall falls to the filter's.
func TestGateCatchesLowRecall(t *testing.T) {
	cfg := smokeConfig(t, "embed-deep")
	cfg.sp.kPrime = k
	res, err := runEndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Errorf("recall %.3f with k' = k passed the gate", res.values["recall_at_10"])
	}
}

// A write the workload believes was acknowledged but that recovery does not
// bring back must fail the run.
func TestGateCatchesLostWrite(t *testing.T) {
	cfg := smokeConfig(t, "cluster-mixed")
	cfg.sp.n = 600
	in, err := makeInputs(cfg.sp, cfg.seed, 100)
	if err != nil {
		t.Fatal(err)
	}
	d, err := setUp(cfg.sp, in.data, cfg.seed, 1, cfg.outDir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.close() }()
	live := &liveSet{n: cfg.sp.n}
	callers := newCallers(d, in, live, cfg.seed, 1)
	runClosedLoop(callers, 300*time.Millisecond)
	if live.inserted.Load() == 0 || live.deleted.Load() == 0 {
		t.Fatalf("no writes in the loop: %d inserts, %d deletes", live.inserted.Load(), live.deleted.Load())
	}
	live.inserted.Add(1) // an acknowledged insert that no stripe holds
	res := &result{values: map[string]float64{}}
	checkRecovery(res, d, in, live)
	if res.correct() {
		t.Error("a lost acknowledged insert passed the recovery check")
	}
}
