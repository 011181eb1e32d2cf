package eval

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/rng"
)

// TestMaintain exercises Section V-D: interleaved inserts and deletes
// against a live index, five batches of n/10 operations. Recall over the
// live set stays within 0.01 of its level before the churn.
func TestMaintain(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Section V-D — index maintenance under churn (k=%d)\n", s.k)
	// Base and a pool of future inserts come from one corpus, so the
	// ground truth stays consistent.
	total, err := dataset.ByName("deep", s.n+s.n/2, s.queries, s.seed)
	if err != nil {
		t.Fatal(err)
	}
	base, pool := total.Train[:s.n], total.Train[s.n:]
	owner, err := core.NewDataOwner(core.Params{Dim: total.Dim, Beta: s.beta(t, total), Seed: s.seed})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(base)
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

	// ids and vecs are the live set, in the order the churn left it.
	ids := make([]int, len(base))
	vecs := slices.Clone(base)
	for i := range ids {
		ids[i] = i
	}
	measure := func() float64 {
		var sum float64
		for _, q := range total.Queries {
			tok, err := user.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := server.Search(tok, s.k, core.SearchOptions{KPrime: 16 * s.k, EfSearch: 16 * s.k})
			if err != nil {
				t.Fatal(err)
			}
			exact := dataset.ExactKNN(vecs, q, s.k)
			want := make([]int, len(exact))
			for i, e := range exact {
				want[i] = ids[e]
			}
			sum += dataset.Recall(got, want)
		}
		return sum / float64(len(total.Queries))
	}

	tb.printf("\n## deep (n=%d, churn batches of %d)\n", s.n, s.n/10)
	tb.printf("%-10s %10s %10s %12s\n", "batch", "inserts", "deletes", fmt.Sprintf("recall@%d", s.k))
	first := measure()
	tb.printf("%-10d %10d %10d %12.3f\n", 0, 0, 0, first)
	r := rng.NewSeeded(s.seed ^ 0x3a13)
	next := 0
	for batch := 1; batch <= 5; batch++ {
		ins, del := 0, 0
		for op := 0; op < s.n/10; op++ {
			if r.Uint64()%2 == 0 && next < len(pool) {
				payload, err := owner.EncryptVector(pool[next])
				if err != nil {
					t.Fatal(err)
				}
				id, err := server.Insert(payload)
				if err != nil {
					t.Fatal(err)
				}
				ids, vecs = append(ids, id), append(vecs, pool[next])
				next++
				ins++
			} else if len(ids) > 4*s.k {
				i := int(r.Uint64() % uint64(len(ids)))
				if err := server.Delete(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids, vecs = slices.Delete(ids, i, i+1), slices.Delete(vecs, i, i+1)
				del++
			}
		}
		rec := measure()
		tb.printf("%-10d %10d %10d %12.3f\n", batch, ins, del, rec)
		if math.Abs(rec-first) > 0.01 {
			t.Errorf("batch %d: recall %.3f is more than 0.01 from %.3f before the churn", batch, rec, first)
		}
	}
	s.check(t, "maintain", &tb)
}
