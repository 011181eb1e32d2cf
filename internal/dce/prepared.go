package dce

import "fmt"

// PreparedQuery carries the per-query state of arena DCE comparisons: the
// store binding and the validated trapdoor vector. The filter-and-refine
// hot path performs hundreds of comparisons per query against one
// trapdoor; preparing the query once moves the dimension check out of the
// comparison kernel.
//
// Comp is bit-identical to CiphertextStore.DistanceCompQ: it runs the same
// kernel with the same operand association.
//
// A PreparedQuery is single-goroutine state (pool one per search scratch);
// Reset drops the store and trapdoor references so a pooled value never
// pins another tenant's query material.
type PreparedQuery struct {
	store *CiphertextStore
	q     []float64
}

// PrepareQuery binds pq to the store and raw trapdoor vector, performing
// the dimension validation exactly once per query.
func (s *CiphertextStore) PrepareQuery(pq *PreparedQuery, q []float64) error {
	if len(q) != s.ctDim {
		return fmt.Errorf("dce: trapdoor has dim %d, ciphertexts %d", len(q), s.ctDim)
	}
	pq.store = s
	pq.q = q
	return nil
}

// Reset drops all references so a pooled PreparedQuery retains nothing.
func (pq *PreparedQuery) Reset() { *pq = PreparedQuery{} }

// Comp evaluates Z_{o,p,q} for records o and p, bit-identical to
// DistanceCompQ on the bound store.
func (pq *PreparedQuery) Comp(o, p int) float64 {
	return pq.store.DistanceCompQ(o, p, pq.q)
}
