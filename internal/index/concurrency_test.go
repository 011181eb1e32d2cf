package index

import (
	"fmt"
	"sync"
	"testing"
)

// The concurrent-read contract every backend must satisfy (see the
// SecureIndex docs): searches are safe and deterministic under arbitrary
// concurrency. core's snapshot-publication tier serves every published
// index this way, so the guarantee gets its own conformance test — run
// with -race in CI, where any shared mutable state between concurrent
// searches surfaces as a detector report.

// TestConformanceConcurrentSearch runs many goroutines searching one
// static index and requires every result to equal the sequential answer:
// concurrent reads may not race (the detector's job) nor perturb each
// other's results (ours).
func TestConformanceConcurrentSearch(t *testing.T) {
	const n, dim, k, ef = 800, 10, 10, 100
	data := clustered(17, n, dim, 8)
	queries := makeQueries(18, data, 20, 0.3)

	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ix, err := Build(name, data, Options{Dim: dim, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]int, len(queries))
			for i, q := range queries {
				want[i] = searchIDs(ix, q, k, ef)
			}

			const workers = 4
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for rep := 0; rep < 10; rep++ {
						qi := (w + rep) % len(queries)
						got := searchIDs(ix, queries[qi], k, ef)
						if len(got) != len(want[qi]) {
							errs <- fmt.Errorf("worker %d query %d: %d ids, want %d", w, qi, len(got), len(want[qi]))
							return
						}
						for i := range got {
							if got[i] != want[qi][i] {
								errs <- fmt.Errorf("worker %d query %d rank %d: id %d, want %d", w, qi, i, got[i], want[qi][i])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
