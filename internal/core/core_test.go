package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ppanns/internal/index"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// testWorld bundles a small end-to-end deployment.
type testWorld struct {
	data   [][]float64
	owner  *DataOwner
	user   *User
	server *Server
}

func clustered(seed uint64, n, dim, clusters int) [][]float64 {
	r := rng.NewSeeded(seed)
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, dim, 6)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = vec.Add(nil, centers[r.IntN(clusters)], rng.GaussianVec(r, dim, 1))
	}
	return out
}

// flushed is s.Flush() for a test that expects the flush to succeed.
func flushed(t testing.TB, s *Server) *EncryptedDatabase {
	t.Helper()
	edb, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return edb
}

func newWorld(t *testing.T, params Params, data [][]float64) *testWorld {
	t.Helper()
	return newWorldWith(t, params, ServerOptions{}, data)
}

// newWorldWith is newWorld with explicit serving-tier options.
func newWorldWith(t *testing.T, params Params, opts ServerOptions, data [][]float64) *testWorld {
	t.Helper()
	owner, err := NewDataOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServerWith(edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{data: data, owner: owner, user: user, server: server}
}

func bruteForce(data [][]float64, q []float64, k int, skip func(int) bool) []int {
	type pair struct {
		id int
		d  float64
	}
	var all []pair
	for i, v := range data {
		if skip != nil && skip(i) {
			continue
		}
		all = append(all, pair{i, vec.SqDist(v, q)})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
	if len(all) > k {
		all = all[:k]
	}
	ids := make([]int, len(all))
	for i, p := range all {
		ids[i] = p.id
	}
	return ids
}

func recallOf(got, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	set := map[int]bool{}
	for _, id := range want {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func (w *testWorld) measureRecall(t *testing.T, queries [][]float64, k int, opt SearchOptions) float64 {
	t.Helper()
	var recall float64
	for _, q := range queries {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.server.Search(tok, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		recall += recallOf(got, bruteForce(w.data, q, k, nil))
	}
	return recall / float64(len(queries))
}

func makeQueries(seed uint64, data [][]float64, n int, noise float64) [][]float64 {
	r := rng.NewSeeded(seed)
	dim := len(data[0])
	out := make([][]float64, n)
	for i := range out {
		out[i] = vec.Add(nil, data[r.IntN(len(data))], rng.GaussianVec(r, dim, noise))
	}
	return out
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewDataOwner(Params{Dim: 0}); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := NewDataOwner(Params{Dim: 4, Beta: -1}); err == nil {
		t.Fatal("expected error for negative beta")
	}
	// The SAP key loader refuses a NaN or infinite β, so the owner must not
	// accept one: it would write a key its own user cannot load.
	for _, beta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewDataOwner(Params{Dim: 4, Beta: beta})
		if err == nil || !strings.Contains(err.Error(), "beta") {
			t.Fatalf("beta %g: error %v, want one naming beta", beta, err)
		}
	}
}

func TestEndToEndHighRecall(t *testing.T) {
	const n, dim, k = 3000, 16, 10
	data := clustered(1, n, dim, 20)
	w := newWorld(t, Params{Dim: dim, Beta: 0.5, IndexOptions: index.Options{M: 12, EfConstruction: 150}, Seed: 42}, data)
	queries := makeQueries(2, data, 40, 0.3)
	recall := w.measureRecall(t, queries, k, SearchOptions{KPrime: 8 * k, EfSearch: 120})
	if recall < 0.9 {
		t.Fatalf("end-to-end recall = %.3f, want ≥ 0.9", recall)
	}
}

func TestRefineImprovesOverFilterOnly(t *testing.T) {
	// With noticeable DCPE noise, the exact DCE refine must beat the
	// filter-only top-k — the core claim of the filter-and-refine design.
	const n, dim, k = 2500, 16, 10
	data := clustered(3, n, dim, 15)
	w := newWorld(t, Params{Dim: dim, Beta: 2.0, IndexOptions: index.Options{M: 12, EfConstruction: 150}, Seed: 7}, data)
	queries := makeQueries(4, data, 40, 0.3)
	filterOnly := w.measureRecall(t, queries, k, SearchOptions{KPrime: 16 * k, EfSearch: 200, Refine: RefineNone})
	refined := w.measureRecall(t, queries, k, SearchOptions{KPrime: 16 * k, EfSearch: 200, Refine: RefineDCE})
	if refined <= filterOnly {
		t.Fatalf("refine did not improve recall: filter-only %.3f vs refined %.3f", filterOnly, refined)
	}
	if refined < 0.85 {
		t.Fatalf("refined recall = %.3f, want ≥ 0.85", refined)
	}
}

func TestResultsOrderedByTrueDistance(t *testing.T) {
	const n, dim, k = 800, 12, 8
	data := clustered(5, n, dim, 8)
	w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 9}, data)
	q := data[100]
	tok, err := w.user.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.server.Search(tok, k, SearchOptions{KPrime: 8 * k})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if vec.SqDist(data[got[i-1]], q) > vec.SqDist(data[got[i]], q)+1e-9 {
			t.Fatalf("results not ordered by true distance at rank %d", i)
		}
	}
}

func TestSearchStats(t *testing.T) {
	data := clustered(6, 500, 8, 5)
	w := newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 11}, data)
	tok, err := w.user.Query(data[0])
	if err != nil {
		t.Fatal(err)
	}
	ids, st, err := w.server.SearchInto(nil, tok, 5, SearchOptions{KPrime: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("got %d results", len(ids))
	}
	if st.Candidates < 5 || st.Comparisons == 0 || st.FilterTime <= 0 || st.RefineTime <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	// Refine cost bound: O(k′·log k) comparisons.
	if st.Comparisons > st.Candidates*12 {
		t.Fatalf("comparisons %d exceed O(k' log k) bound for %d candidates", st.Comparisons, st.Candidates)
	}
}

func TestInsertThenFindable(t *testing.T) {
	const dim = 10
	data := clustered(9, 400, dim, 4)
	w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 15}, data)
	r := rng.NewSeeded(99)
	novel := rng.GaussianVec(r, dim, 30) // far from all clusters
	payload, err := w.owner.EncryptVector(novel)
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.server.Insert(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("insert id = %d, want 400", id)
	}
	tok, err := w.user.Query(novel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.server.Search(tok, 1, SearchOptions{KPrime: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != id {
		t.Fatalf("inserted vector not found: got %v", got)
	}
}

func TestDeleteExcludedFromResults(t *testing.T) {
	const n, dim, k = 800, 10, 10
	data := clustered(10, n, dim, 6)
	w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 17}, data)
	q := data[50]
	tok, err := w.user.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.server.Search(tok, k, SearchOptions{KPrime: 8 * k})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the current top hit; it must disappear from results.
	if err := w.server.Delete(before[0]); err != nil {
		t.Fatal(err)
	}
	if !w.server.Deleted(before[0]) {
		t.Fatal("Deleted() bookkeeping wrong")
	}
	after, err := w.server.Search(tok, k, SearchOptions{KPrime: 8 * k})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range after {
		if id == before[0] {
			t.Fatal("deleted id still returned")
		}
	}
	recall := recallOf(after, bruteForce(data, q, k, func(i int) bool { return i == before[0] }))
	if recall < 0.8 {
		t.Fatalf("recall after delete = %.3f", recall)
	}
}

func TestDeleteErrors(t *testing.T) {
	data := clustered(11, 100, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.5, Seed: 19}, data)
	if err := w.server.Delete(-1); err == nil {
		t.Fatal("expected error for negative id")
	}
	if err := w.server.Delete(100); err == nil {
		t.Fatal("expected error for out-of-range id")
	}
	if err := w.server.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := w.server.Delete(5); err == nil {
		t.Fatal("expected error for double delete")
	}
}

func TestSearchValidation(t *testing.T) {
	data := clustered(12, 100, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.5, Seed: 21}, data)
	if _, err := w.server.Search(nil, 5, SearchOptions{}); err == nil {
		t.Fatal("expected error for nil token")
	}
	tok, _ := w.user.Query(data[0])
	if _, err := w.server.Search(tok, 0, SearchOptions{}); err == nil {
		t.Fatal("expected error for k = 0")
	}
	if _, err := w.server.Search(tok, 5, SearchOptions{Refine: RefineMode(1)}); err == nil {
		t.Fatal("expected error for the unassigned refine mode 1")
	}
	filterTok := &QueryToken{SAP: tok.SAP}
	if _, err := w.server.Search(filterTok, 5, SearchOptions{Refine: RefineDCE}); err == nil {
		t.Fatal("expected error for DCE refine without trapdoor")
	}
	if _, err := w.server.Search(filterTok, 5, SearchOptions{Refine: RefineNone}); err != nil {
		t.Fatalf("filter-only search with filter-only token failed: %v", err)
	}
	if _, err := w.server.Search(tok, 5, SearchOptions{Refine: RefineNone}); err != nil {
		t.Fatalf("filter-only search with a full token failed: %v", err)
	}
}

func TestUserValidation(t *testing.T) {
	if _, err := NewUser(nil); err == nil {
		t.Fatal("expected error for nil key")
	}
	data := clustered(13, 50, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.5, Seed: 23}, data)
	if _, err := w.user.Query(make([]float64, 5)); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}

func TestOwnerValidation(t *testing.T) {
	owner, err := NewDataOwner(Params{Dim: 4, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.EncryptDatabase(nil); err == nil {
		t.Fatal("expected error for empty database")
	}
	if _, err := owner.EncryptDatabase([][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for wrong vector dim")
	}
	if _, err := owner.EncryptVector([]float64{1, 2, 3, 4}); err == nil {
		t.Fatal("expected error for EncryptVector before EncryptDatabase")
	}
}

// TestNonFiniteRefused: a NaN or ±Inf coordinate is refused by every entry
// point that encrypts a plaintext, with an error naming the vector and the
// coordinate — EncryptDatabase before it generates keys, so a NaN cannot
// become an all-NaN record and an infinity cannot zero the DCE input scale.
func TestNonFiniteRefused(t *testing.T) {
	const dim = 6
	data := clustered(17, 40, dim, 2)
	w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 29}, data)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := append([]float64(nil), data[0]...)
		v[3] = bad
		coord := fmt.Sprintf("coordinate 3 is %v", bad)

		owner, err := NewDataOwner(Params{Dim: dim, Beta: 0.5, Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		db := append(append([][]float64(nil), data[:7]...), v)
		_, err = owner.EncryptDatabase(db)
		if err == nil || !strings.Contains(err.Error(), "vector 7: "+coord) {
			t.Errorf("EncryptDatabase with %v: %v, want an error naming vector 7, %s", bad, err, coord)
		}
		if owner.UserKey() != nil {
			t.Errorf("EncryptDatabase with %v generated keys before refusing", bad)
		}
		for name, call := range map[string]func() error{
			"EncryptVector": func() error { _, err := w.owner.EncryptVector(v); return err },
			"Query":         func() error { _, err := w.user.Query(v); return err },
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), coord) {
				t.Errorf("%s with %v: %v, want an error naming %s", name, bad, err, coord)
			}
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("expected error for nil database")
	}
	if _, err := NewServer(&EncryptedDatabase{}); err == nil {
		t.Fatal("expected error for empty database")
	}
}

func TestKPrimeMonotonicRecall(t *testing.T) {
	// Figure 5's shape: recall ceiling grows with Ratio_k = k′/k.
	const n, dim, k = 2000, 12, 10
	data := clustered(14, n, dim, 12)
	w := newWorld(t, Params{Dim: dim, Beta: 2.5, IndexOptions: index.Options{M: 12, EfConstruction: 150}, Seed: 27}, data)
	queries := makeQueries(15, data, 30, 0.3)
	rec1 := w.measureRecall(t, queries, k, SearchOptions{KPrime: k, EfSearch: 250})
	rec16 := w.measureRecall(t, queries, k, SearchOptions{KPrime: 16 * k, EfSearch: 250})
	if rec16 < rec1 {
		t.Fatalf("recall fell as Ratio_k grew: %.3f (1) vs %.3f (16)", rec1, rec16)
	}
	if rec16-rec1 < 0.02 {
		t.Logf("warning: Ratio_k effect small (%.3f vs %.3f); beta may be low", rec1, rec16)
	}
}

func TestConcurrentSearches(t *testing.T) {
	data := clustered(16, 800, 10, 6)
	w := newWorld(t, Params{Dim: 10, Beta: 0.5, Seed: 29}, data)
	queries := makeQueries(17, data, 32, 0.3)
	done := make(chan error, len(queries))
	for _, q := range queries {
		go func(q []float64) {
			tok, err := w.user.Query(q)
			if err != nil {
				done <- err
				return
			}
			_, err = w.server.Search(tok, 5, SearchOptions{KPrime: 20})
			done <- err
		}(q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
