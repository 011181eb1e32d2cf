// Package par is the one fan-out primitive of the set-up paths (HNSW
// batches, LU panels, k-means sweeps): it spreads an index range over the
// cores in a way that cannot leak the core count into a result.
package par

import (
	"sync"
	"sync/atomic"
)

// Spans cuts [0,n) into consecutive spans of at most grain indexes — a
// partition that depends on n and grain alone — and calls body(worker, lo,
// hi) once per span, handing spans out as workers come free. At most
// workers goroutines run, the caller's among them; worker is dense in
// [0, workers) and belongs to one goroutine, so a body may keep scratch per
// worker. A body must write only state owned by its span: then which worker
// ran which span, and when, never shows.
func Spans(workers, n, grain int, body func(worker, lo, hi int)) {
	if spans := (n + grain - 1) / grain; workers > spans {
		workers = spans
	}
	var next atomic.Int64
	run := func(worker int) {
		for {
			lo := (int(next.Add(1)) - 1) * grain
			if lo >= n {
				return
			}
			body(worker, lo, min(lo+grain, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
