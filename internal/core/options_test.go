package core

import "testing"

func TestSearchOptionsKPrime(t *testing.T) {
	cases := []struct {
		opt  SearchOptions
		k    int
		want int
	}{
		{SearchOptions{}, 10, 80},           // default 8·k
		{SearchOptions{KPrime: 25}, 10, 25}, // explicit
		{SearchOptions{KPrime: -3}, 10, 80}, // non-positive: the default
	}
	for i, c := range cases {
		if got := c.opt.kPrime(c.k); got != c.want {
			t.Errorf("case %d: kPrime = %d, want %d", i, got, c.want)
		}
	}
}

func TestSearchOptionsEf(t *testing.T) {
	if got := (SearchOptions{}).ef(20); got != 50 {
		t.Errorf("small k': ef = %d, want 50", got)
	}
	if got := (SearchOptions{}).ef(200); got != 200 {
		t.Errorf("large k': ef = %d, want 200", got)
	}
	if got := (SearchOptions{EfSearch: 77}).ef(200); got != 77 {
		t.Errorf("explicit ef = %d, want 77", got)
	}
}

func TestRefineModeString(t *testing.T) {
	for mode, want := range map[RefineMode]string{
		RefineDCE: "dce", RefineNone: "filter-only",
		RefineMode(1): "refine(1)", RefineMode(9): "refine(9)",
	} {
		if mode.String() != want {
			t.Errorf("String() = %q, want %q", mode.String(), want)
		}
	}
}

func TestKPrimeClampedToK(t *testing.T) {
	// A KPrime below k must be raised to k by Search.
	data := clustered(51, 200, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 51}, data)
	tok, err := w.user.Query(data[0])
	if err != nil {
		t.Fatal(err)
	}
	ids, err := w.server.Search(tok, 10, SearchOptions{KPrime: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("got %d results with KPrime<k, want 10", len(ids))
	}
}

func TestInsertPayloadValidation(t *testing.T) {
	data := clustered(53, 100, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 53}, data)
	if _, err := w.server.Insert(nil); err == nil {
		t.Fatal("expected error for nil payload")
	}
	if _, err := w.server.Insert(&InsertPayload{}); err == nil {
		t.Fatal("expected error for empty payload")
	}
}
