package ppanns_test

import (
	"bytes"
	"testing"

	"ppanns"
	"ppanns/internal/dataset"
)

// TestPublicAPIEndToEnd exercises the whole public surface: deployment
// construction, search, updates, key round trip and database round trip.
func TestPublicAPIEndToEnd(t *testing.T) {
	data := dataset.GloVeLike(1200, 15, 5)
	dep, err := ppanns.NewDeployment(ppanns.Params{
		Dim: data.Dim, Beta: 1.0, IndexOptions: ppanns.IndexOptions{M: 12, EfConstruction: 120}, Seed: 5,
	}, data.Train)
	if err != nil {
		t.Fatal(err)
	}

	const k = 10
	gt := data.GroundTruth(k)
	var recall float64
	for i, q := range data.Queries {
		ids, err := dep.Search(q, k, ppanns.SearchOptions{KPrime: 16 * k, EfSearch: 160})
		if err != nil {
			t.Fatal(err)
		}
		recall += dataset.Recall(ids, gt[i])
	}
	recall /= float64(len(data.Queries))
	if recall < 0.9 {
		t.Fatalf("public API recall = %.3f, want ≥ 0.9", recall)
	}

	// Updates.
	id, err := dep.Insert(data.Train[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Delete(id); err != nil {
		t.Fatal(err)
	}

	// Key round trip through the public helpers.
	var buf bytes.Buffer
	if err := ppanns.SaveUserKey(&buf, dep.Owner.UserKey()); err != nil {
		t.Fatal(err)
	}
	key, err := ppanns.LoadUserKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	user2, err := ppanns.NewUser(key)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := user2.Query(data.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	ids, err := dep.Server.Search(tok, k, ppanns.SearchOptions{KPrime: 16 * k})
	if err != nil {
		t.Fatal(err)
	}
	if dataset.Recall(ids, gt[0]) < 0.8 {
		t.Fatal("deserialized key produced bad results")
	}
}

// TestRefineModesExposed confirms both refine modes are reachable through
// the façade.
func TestRefineModesExposed(t *testing.T) {
	data := dataset.DeepLike(400, 5, 6)
	dep, err := ppanns.NewDeployment(ppanns.Params{
		Dim: data.Dim, Beta: 0.2, IndexOptions: ppanns.IndexOptions{M: 12, EfConstruction: 100}, Seed: 6,
	}, data.Train)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ppanns.RefineMode{ppanns.RefineNone, ppanns.RefineDCE} {
		ids, err := dep.Search(data.Queries[0], 5, ppanns.SearchOptions{KPrime: 40, Refine: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(ids) != 5 {
			t.Fatalf("mode %v returned %d ids", mode, len(ids))
		}
	}
}
