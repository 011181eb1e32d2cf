package par

import (
	"sync/atomic"
	"testing"
)

// TestSpansCoverOnce: every index is visited exactly once, spans are the
// fixed grain-sized cuts whatever the worker count, and worker ids stay in
// range and are never used by two goroutines at once.
func TestSpansCoverOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 5000} {
				hits := make([]atomic.Int32, n)
				busy := make([]atomic.Int32, max(workers, 1))
				Spans(workers, n, grain, func(w, lo, hi int) {
					if w < 0 || w >= len(busy) {
						t.Errorf("worker id %d with %d workers", w, workers)
						return
					}
					if busy[w].Add(1) != 1 {
						t.Errorf("worker id %d used concurrently", w)
					}
					defer busy[w].Add(-1)
					if lo%grain != 0 || hi != min(lo+grain, n) || lo >= hi {
						t.Errorf("span [%d,%d) is not a grain-%d cut of %d", lo, hi, grain, n)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if hits[i].Load() != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, hits[i].Load())
					}
				}
			}
		}
	}
}
