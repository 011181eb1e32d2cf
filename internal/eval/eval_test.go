// Package eval reproduces the paper's evaluation (Section VII of arxiv
// 2508.10373, with the Section III attacks, the Section V-D maintenance
// run and the Section V-A index ablation) as tests: one test per table or
// figure. Each test prints the columns the seed fixes — recall, the chosen
// ef and k′, bytes and rounds per query, attack errors, churn counts —
// and compares them byte for byte with its committed table,
// testdata/<id>.txt. A table holds no time: throughput and latency are
// measured by benchmark/, not here. Where the paper states a shape that
// the seed fixes (recall falls as β grows, DCPE ciphertexts are the
// smallest, …), the test asserts it beside the comparison, so rewriting a
// table cannot break a claim.
//
//	go test ./internal/eval                      # smoke: n=600, 8 queries, k=5, seed 7
//	go test ./internal/eval -eval.scale=full     # n=8000, 50 queries, k=10, seed 42
//	go test ./internal/eval -run TestFig4 -update  # rewrite a table
//
// The full scale compares with testdata/full/<id>.txt. The corpora are
// synthetic stand-ins, so the shapes, not the absolute numbers, are the
// reproduction target (README, "Reproducing the paper's evaluation").
package eval

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
)

var (
	scaleFlag = flag.String("eval.scale", "smoke", "smoke (n=600, 8 queries, k=5, seed 7) or full (n=8000, 50 queries, k=10, seed 42)")
	update    = flag.Bool("update", false, "rewrite the committed tables instead of comparing with them")
)

// allNames is the paper's four-dataset default.
var allNames = []string{"sift", "gist", "glove", "deep"}

// scale is one size of the evaluation and the directory its tables are
// committed in.
type scale struct {
	n, queries, k int
	seed          uint64
	dir           string
}

// start returns the scale -eval.scale names. Smoke-scale tests run in
// parallel; full-scale ones run one at a time, because Figures 7 and 9
// each hold about 1.6 GB of PIR blocks at that size.
func start(t *testing.T) scale {
	t.Helper()
	switch *scaleFlag {
	case "smoke":
		t.Parallel()
		return scale{n: 600, queries: 8, k: 5, seed: 7, dir: "testdata"}
	case "full":
		return scale{n: 8000, queries: 50, k: 10, seed: 42, dir: filepath.Join("testdata", "full")}
	}
	t.Fatalf("-eval.scale=%q: want smoke or full", *scaleFlag)
	return scale{}
}

// datasets materializes the named corpora. GIST-like is 960-dimensional,
// so its size is capped at 4000.
func (s scale) datasets(t *testing.T, names ...string) []*dataset.Data {
	t.Helper()
	out := make([]*dataset.Data, 0, len(names))
	for _, name := range names {
		n := s.n
		if name == "gist" {
			n = min(n, 4000)
		}
		d, err := dataset.ByName(name, n, s.queries, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// beta calibrates DCPE's β for d to a filter-phase recall of 0.5, as the
// paper does.
func (s scale) beta(t *testing.T, d *dataset.Data) float64 {
	t.Helper()
	b, err := core.CalibrateBeta(d.Train, d.Queries, s.k, 0.5, s.seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// check compares a printed table with its committed copy, or rewrites the
// copy under -update.
func (s scale) check(t *testing.T, id string, tb *table) {
	t.Helper()
	path := filepath.Join(s.dir, id+".txt")
	got := tb.String()
	if *update {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (run with -update to rewrite it)\n--- got\n%s--- want\n%s", id, path, got, want)
	}
}

// table collects one experiment's printed rows.
type table struct{ strings.Builder }

func (tb *table) printf(format string, args ...any) { fmt.Fprintf(tb, format, args...) }

// deployment is a PP-ANNS deployment over one corpus with every query's
// token made in advance.
type deployment struct {
	data   *dataset.Data
	server *core.Server
	tokens []*core.QueryToken
}

func deploy(t *testing.T, d *dataset.Data, beta float64, seed uint64) *deployment {
	t.Helper()
	owner, err := core.NewDataOwner(core.Params{Dim: d.Dim, Beta: beta, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(d.Train)
	if err != nil {
		t.Fatal(err)
	}
	server, err := core.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	dep := &deployment{data: d, server: server, tokens: make([]*core.QueryToken, len(d.Queries))}
	for i, q := range d.Queries {
		if dep.tokens[i], err = user.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	return dep
}

// recall is the mean Recall@k of the first n queries' answers, search(i)
// answering query i.
func recall(t *testing.T, d *dataset.Data, k, n int, search func(i int) ([]int, error)) float64 {
	t.Helper()
	got := make([][]int, n)
	for i := range got {
		var err error
		if got[i], err = search(i); err != nil {
			t.Fatal(err)
		}
	}
	return dataset.MeanRecall(got, d.GroundTruth(k)[:n])
}

// recall is the mean Recall@k of every query under opt.
func (dep *deployment) recall(t *testing.T, k int, opt core.SearchOptions) float64 {
	t.Helper()
	return recall(t, dep.data, k, len(dep.tokens), func(i int) ([]int, error) {
		return dep.server.Search(dep.tokens[i], k, opt)
	})
}

// sweep prints one row of a recall curve over efSearch values, labelled
// label, and returns the row's recalls. The index raises any ef below the
// call's k′ (opt.KPrime) to k′, so the sweep skips those: each would
// repeat the k′ point.
func (dep *deployment) sweep(t *testing.T, tb *table, label string, k int, opt core.SearchOptions, efs []int) []float64 {
	t.Helper()
	tb.printf("%-22s", label)
	var row []float64
	for _, ef := range efs {
		if ef < opt.KPrime {
			continue
		}
		opt.EfSearch = ef
		r := dep.recall(t, k, opt)
		tb.printf(" | ef=%-4d r=%.3f", ef, r)
		row = append(row, r)
	}
	tb.printf("\n")
	return row
}

// defaultEfs is the beam-width sweep the recall curves use; sweep drops
// the widths below its call's k′.
func defaultEfs(k int) []int {
	base := []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	efs := make([]int, 0, len(base))
	for _, e := range base {
		efs = append(efs, max(e*k/10, 1))
	}
	sort.Ints(efs)
	return efs
}

func TestDefaultEfs(t *testing.T) {
	efs := defaultEfs(10)
	if !sort.IntsAreSorted(efs) {
		t.Fatalf("ef sweep not sorted: %v", efs)
	}
	if efs[0] < 1 {
		t.Fatalf("ef sweep starts below 1: %v", efs)
	}
	// Must scale with k.
	efs100 := defaultEfs(100)
	if efs100[len(efs100)-1] <= efs[len(efs)-1] {
		t.Fatalf("ef sweep does not scale with k: %v vs %v", efs, efs100)
	}
}

// TestTable1 prints the dataset statistics table (Table I), extended with
// the value ranges the synthetic generators target and the admissible β
// range.
func TestTable1(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Table I — dataset statistics (synthetic stand-ins; see the README, \"Reproducing the paper's evaluation\")\n")
	tb.printf("%-12s %6s %9s %9s %10s %10s %12s\n",
		"dataset", "dim", "#vectors", "#queries", "max|x|", "mean‖x‖", "β∈[√M,2M√d]")
	for _, d := range s.datasets(t, allNames...) {
		st := d.Describe()
		tb.printf("%-12s %6d %9d %9d %10.2f %10.2f [%.2f, %.0f]\n",
			st.Name, st.Dim, st.N, st.Queries, st.MaxAbs, st.MeanNorm, st.BetaLo, st.BetaHi)
	}
	s.check(t, "table1", &tb)
}
