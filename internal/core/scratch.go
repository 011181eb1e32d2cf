package core

import (
	"sync"

	"ppanns/internal/dce"
	"ppanns/internal/pq"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// searchScratch is the per-search working set, pooled so the steady-state
// hot path performs no allocation: the filter-phase item buffer, the
// candidate id list, the refine heap with its drain buffer, and the pooled
// DCE comparator.
//
// Every search checks one scratch out of the pool and returns it on exit,
// so concurrent searches each hold their own scratch without coordination.
type searchScratch struct {
	items  []resultheap.Item
	cands  []int
	sorted []int
	tier   tierScratch
	heap   resultheap.CompareHeap
	exact  vec.Exact
	pqsc   pq.Scanner
	dce    dceComparator
}

// tierScratch is the filter phase's two-tier staging area: the main-tier
// index results (pre-masking), the live delta ids with their distances,
// and the top-k′ pool snapshot.filterInto merges both tiers in. Pooled
// alongside the rest of the search scratch so the tiered filter allocates
// nothing in steady state.
type tierScratch struct {
	main  []resultheap.Item
	ids   []int32
	dists []float64
	pool  resultheap.Pool
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func getScratch() *searchScratch { return scratchPool.Get().(*searchScratch) }

func putScratch(sc *searchScratch) {
	// Drop per-query references (trapdoors, the ciphertext store) so a
	// pooled scratch never pins another tenant's query material; the flat
	// buffers are the point of the pool and stay.
	sc.exact.Reset()
	sc.pqsc.Reset()
	sc.dce = dceComparator{}
	scratchPool.Put(sc)
}

// dceComparator implements resultheap.Comparator over candidate positions
// (indexes into cands): it compares their records in the snapshot's store
// against the query's trapdoor, whose dimension search has checked. A
// pooled struct pointer costs no allocation where a per-search closure
// would.
type dceComparator struct {
	store *dce.CiphertextStore
	tq    *dce.Trapdoor
	cands []int
}

func (c *dceComparator) Farther(a, b int) bool {
	return c.store.DistanceComp(c.cands[a], c.cands[b], c.tq) > 0
}

// refineScratch runs Algorithm 2's bounded max-heap selection over
// candidate positions 0..len(cands)-1 using the scratch's pooled heap,
// then maps the surviving positions back to external ids appended into
// dst. Returns dst and the secure-comparison count.
func refineScratch(sc *searchScratch, cands []int, k int, cmp resultheap.Comparator, dst []int) ([]int, int) {
	if k > len(cands) {
		k = len(cands)
	}
	sc.heap.Reset(k, cmp)
	for i := range cands {
		sc.heap.Offer(i)
	}
	sc.sorted = sc.heap.SortedInto(sc.sorted)
	dst = dst[:0]
	for _, pos := range sc.sorted {
		dst = append(dst, cands[pos])
	}
	return dst, sc.heap.Comparisons()
}
