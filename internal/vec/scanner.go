package vec

import "fmt"

// BlockScanner is the filter phase's one distance provider: a search takes
// every candidate distance from it, in both tiers. Two implementations
// serve: Exact, the squared L2 over a Dataset's rows, and a per-query PQ
// asymmetric distance table over the compressed code arena
// (internal/pq.Scanner). It is defined here, at the bottom of the import
// graph, so every index backend can accept one without importing pq.
//
// Ids are positions, the ids a backend's Search returns; a backend that
// numbered its vectors any other way inside would have to translate before
// asking (none does). Implementations must be safe for concurrent use only in
// the sense that distinct Scanner values may run on distinct goroutines;
// one value serves one query at a time.
type BlockScanner interface {
	// DistBlock writes the distance of each id to the prepared query into
	// dst[i] (pre-sized to len(ids) by the caller).
	DistBlock(dst []float64, ids []int32)
	// Dist returns the distance of a single id to the prepared query.
	Dist(id int32) float64
}

// Exact is the exact BlockScanner: the squared Euclidean distance of each
// row of a Dataset to a bound query. DistBlock runs the blocked kernel of
// Dataset.SqDistBlock and Dist runs SqDist, which give the same bits. A
// search binds one from its pooled scratch, so binding allocates nothing.
type Exact struct {
	rows *Dataset
	q    []float64
}

// Bind points the scanner at rows and q and returns it.
func (s *Exact) Bind(rows *Dataset, q []float64) *Exact {
	if len(q) != rows.Dim() {
		panic(fmt.Sprintf("vec: exact scan of %d-dim query on %d-dim dataset", len(q), rows.Dim()))
	}
	s.rows, s.q = rows, q
	return s
}

// Reset drops the binding, so a pooled scanner pins neither the rows nor
// the query between searches.
func (s *Exact) Reset() { s.rows, s.q = nil, nil }

// DistBlock writes SqDist(q, rows.At(ids[j])) into dst[j].
func (s *Exact) DistBlock(dst []float64, ids []int32) {
	r := &s.rows.rows
	sqDistBlockKernel(dst, r.data, r.stride, r.width, s.q, ids)
}

// Dist returns SqDist(q, rows.At(id)).
func (s *Exact) Dist(id int32) float64 { return SqDist(s.q, s.rows.At(int(id))) }

// PQScanBlock computes dst[j] = Σ_m lut[m·256 + codes[ids[j]·m + m]] — the
// blocked PQ LUT scan — through the process's kernel variant. Each variant
// accumulates each point's M lookups sequentially in subspace order, so
// results are bit-identical across variants. codes must carry the pq
// package's gather slack (the AVX2 variant reads up to three bytes past
// the final referenced code).
func PQScanBlock(dst []float64, codes []byte, m int, lut []float64, ids []int32) {
	pqScanBlockKernel(dst, codes, m, lut, ids)
}

// pqScanBlockScalar is the reference LUT-scan kernel: one sequential
// accumulation per point, in subspace order. The AVX2 variant processes
// four points in independent register lanes but sums each lane in exactly
// this order, so the two cannot drift.
func pqScanBlockScalar(dst []float64, codes []byte, m int, lut []float64, ids []int32) {
	for j, id := range ids {
		base := int(id) * m
		var s float64
		for i := 0; i < m; i++ {
			s += lut[i*256+int(codes[base+i])]
		}
		dst[j] = s
	}
}
