// Package bench is the experiment harness for Section VII: it regenerates
// every table and figure of the paper's evaluation at configurable scale,
// printing the same rows/series the paper reports (recall/QPS curves,
// latency-vs-recall, per-side cost splits, scalability trends).
//
// Experiments are registered by id ("table1", "fig4" … "fig10",
// "overhead", "attack", "maintain", "indexes", "tune") and dispatched by
// cmd/ppanns-bench. Performance is not measured here: the standing
// benchmark is benchmark/ (see BENCHMARK.json).
// The corpora are synthetic stand-ins and absolute numbers differ from the
// paper's C++/Xeon testbed; the shapes — who wins, by what order of
// magnitude, how curves bend — are the reproduction target (README,
// "Reproducing the paper's evaluation").
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
)

// Config sets the scale and output of an experiment run.
type Config struct {
	// N is the database size per dataset (default 8000).
	N int
	// Queries is the query-set size (default 50).
	Queries int
	// K is the result size k (default 10, as in the paper).
	K int
	// Seed fixes data generation and key material.
	Seed uint64
	// Datasets restricts the corpora ("sift", "gist", "glove", "deep");
	// empty means the experiment's default set.
	Datasets []string
	// Full lifts the scale reductions that keep AME/GIST-sized pieces
	// tractable on laptops.
	Full bool
	// Out receives the report (default os.Stdout via the CLI).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 8000
	}
	if c.Queries <= 0 {
		c.Queries = 50
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) error
}

// Registry lists all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table I: dataset statistics", Table1},
		{"fig4", "Figure 4: effect of β on filter-phase recall/QPS", Fig4},
		{"fig5", "Figure 5: effect of Ratio_k on recall/QPS", Fig5},
		{"fig6", "Figure 6: HNSW-DCE vs HNSW-AME vs HNSW(filter) latency", Fig6},
		{"fig7", "Figure 7: QPS vs baselines at matched recall", Fig7},
		{"fig8", "Figure 8: per-vector encryption cost", Fig8},
		{"fig9", "Figure 9: server/user cost split at Recall@10 = 0.9", Fig9},
		{"fig10", "Figure 10: scalability with database size", Fig10},
		{"overhead", "Sec. VII-B: overhead vs plaintext HNSW at recall 0.9", Overhead},
		{"attack", "Sec. III: KPA attacks on ASPE variants (control: DCE)", Attack},
		{"maintain", "Sec. V-D: index maintenance under churn", Maintain},
		{"indexes", "Sec. V-A ablation: HNSW vs IVF vs LSH vs NSG vs flat scan as filter backend", Indexes},
		{"tune", "PQ tier tuner: cheapest (M, k′) meeting the recall target", Tune},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// datasets materializes the configured corpora.
func (c Config) datasets(defaults ...string) ([]*dataset.Data, error) {
	names := c.Datasets
	if len(names) == 0 {
		names = defaults
	}
	out := make([]*dataset.Data, 0, len(names))
	for _, name := range names {
		n := c.N
		if (name == "gist" || name == "gist-like") && !c.Full && n > 4000 {
			// GIST-like is 960-dimensional; cap its default size so the
			// laptop run stays in minutes. -full lifts the cap.
			n = 4000
		}
		d, err := dataset.ByName(name, n, c.Queries, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// deployment is a measured PP-ANNS deployment over one corpus with
// pre-encrypted query tokens, so timing isolates the server side — the
// paper's measurement methodology ("we focus on the server-side search
// performance").
type deployment struct {
	data   *dataset.Data
	params core.Params
	owner  *core.DataOwner
	user   *core.User
	server *core.Server
	edb    *core.EncryptedDatabase
	tokens []*core.QueryToken
}

func newDeployment(data *dataset.Data, params core.Params) (*deployment, error) {
	owner, err := core.NewDataOwner(params)
	if err != nil {
		return nil, err
	}
	edb, err := owner.EncryptDatabase(data.Train)
	if err != nil {
		return nil, err
	}
	server, err := core.NewServer(edb)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(owner.UserKey())
	if err != nil {
		return nil, err
	}
	d := &deployment{data: data, params: params, owner: owner, user: user, server: server, edb: edb}
	d.tokens = make([]*core.QueryToken, len(data.Queries))
	for i, q := range data.Queries {
		tok, err := user.Query(q)
		if err != nil {
			return nil, err
		}
		d.tokens[i] = tok
	}
	return d, nil
}

// point is one (recall, throughput/latency) measurement.
type point struct {
	Ef      int
	Recall  float64
	QPS     float64
	Latency time.Duration
	Stats   core.SearchStats
}

// measure runs all queries once with the given options, single-threaded,
// returning mean recall and server-side QPS/latency.
func (d *deployment) measure(k int, opt core.SearchOptions) (point, error) {
	gt := d.data.GroundTruth(k)
	got := make([][]int, len(d.tokens))
	var agg core.SearchStats
	start := time.Now()
	for i, tok := range d.tokens {
		ids, st, err := d.server.SearchInto(nil, tok, k, opt)
		if err != nil {
			return point{}, err
		}
		got[i] = ids
		agg.Candidates += st.Candidates
		agg.Comparisons += st.Comparisons
		agg.FilterTime += st.FilterTime
		agg.RefineTime += st.RefineTime
	}
	elapsed := time.Since(start)
	nq := len(d.tokens)
	return point{
		Ef:      opt.EfSearch,
		Recall:  dataset.MeanRecall(got, gt),
		QPS:     float64(nq) / elapsed.Seconds(),
		Latency: elapsed / time.Duration(nq),
		Stats:   agg,
	}, nil
}

// sweep measures a recall/QPS curve over efSearch values. The index raises
// any ef below the call's k′ (opt.KPrime) to k′, so the sweep skips those:
// each would repeat the k′ point.
func (d *deployment) sweep(k int, opt core.SearchOptions, efs []int) ([]point, error) {
	pts := make([]point, 0, len(efs))
	for _, ef := range efs {
		if ef < opt.KPrime {
			continue
		}
		o := opt
		o.EfSearch = ef
		p, err := d.measure(k, o)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// defaultEfs is the beam-width sweep the recall/QPS curves use; sweep
// drops the widths below its call's k′.
func defaultEfs(k int) []int {
	base := []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	efs := make([]int, 0, len(base))
	for _, e := range base {
		ef := e * k / 10
		if ef < 1 {
			ef = 1
		}
		efs = append(efs, ef)
	}
	sort.Ints(efs)
	return efs
}

// fmtPoints renders a curve as "ef=.. recall=.. qps=.." columns.
func fmtPoints(w io.Writer, label string, pts []point) {
	fmt.Fprintf(w, "%-22s", label)
	for _, p := range pts {
		fmt.Fprintf(w, " | ef=%-4d r=%.3f qps=%-8.1f", p.Ef, p.Recall, p.QPS)
	}
	fmt.Fprintln(w)
}
