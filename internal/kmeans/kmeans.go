// Package kmeans implements Lloyd's algorithm with k-means++ seeding — the
// coarse quantizer behind the IVF index (inverted files are one of the
// k-ANNS index families the paper surveys in Sections I and VIII) and the
// per-subspace quantizer of the PQ tier.
//
// Nothing here scans every centroid for every point. Wherever a block of
// points meets a block of centroids — a Lloyd reassignment, a k-means++
// pick, PQ encoding, an IVF fold — the nearest centroid comes from a
// Searcher, which rules centroids out by the triangle inequality from a
// guess (the point's previous centroid, in Lloyd) and evaluates the few
// that are left. The pruning is exact: index and distance are NearestFlat's
// bit for bit, lowest index on ties, so centroids, assignments, codes and
// lists are the bytes a full scan would have produced. On data with no
// cluster structure nothing can be ruled out and a search degenerates to
// the full scan, which is the only fallback there is. NearestFlat itself
// remains as that fallback, the single-point path and the test oracle.
package kmeans

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"ppanns/internal/par"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Config parameterizes a clustering run.
type Config struct {
	// K is the number of centroids (required).
	K int
	// MaxIters bounds Lloyd iterations (default 25).
	MaxIters int
	// Tol stops a run once the centroids' mean movement in one iteration —
	// an absolute distance, in the data's own units — falls below it
	// (default 1e-4). It is not scaled to the data: on SAP ciphertexts
	// (s = 1024) movements stay far above the default and every run goes
	// to MaxIters; Result.Iters says what a run did.
	Tol float64
	// Seed drives k-means++ seeding.
	Seed uint64
}

// Result is a fitted clustering.
type Result struct {
	// Centroids are the rows of Flat.
	Centroids [][]float64
	// Flat is the contiguous K×dim centroid block.
	Flat []float64
	// Assign maps each input row to its centroid index.
	Assign []int
	Stats
}

// Stats is the work of a run, or summed of several.
type Stats struct {
	// Iters is the number of Lloyd iterations performed.
	Iters int
	// DistEvals counts the squared distances evaluated, point–centroid and
	// centre–centre alike; a full scan evaluates n·K·(Iters+1) per run.
	DistEvals int64
}

// Add accumulates another run's work.
func (s *Stats) Add(o Stats) {
	s.Iters += o.Iters
	s.DistEvals += o.DistEvals
}

// Fit clusters data into cfg.K groups. Assignment and seeding distances
// run on GOMAXPROCS workers; everything whose floating-point order could
// show (centroid sums, the D² total and pick) is accumulated in index
// order on one, so the result is a function of (data, cfg) alone.
func Fit(data [][]float64, cfg Config) (*Result, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("kmeans: empty data")
	}
	if cfg.K <= 0 || cfg.K > len(data) {
		return nil, fmt.Errorf("kmeans: k=%d outside [1,%d]", cfg.K, len(data))
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 25
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("kmeans: zero-dimensional data")
	}
	r := rng.NewSeeded(cfg.Seed ^ 0x43a9)

	// Seeding leaves every point on its nearest seed: iteration 0's
	// assignment.
	var evals atomic.Int64
	cents, assign := seedPlusPlus(r, data, cfg.K, &evals)
	next := make([]float64, len(cents))
	counts := make([]int, cfg.K)
	// members lists the points centroid by centroid; centroid c's end at
	// ends[c].
	ends := make([]int, cfg.K)
	members := make([]int32, len(data))
	var search Searcher

	var iters int
	for iters = 0; iters < cfg.MaxIters; iters++ {
		// Assignment step (parallel), from each point's previous centroid.
		if iters > 0 {
			search.Reset(cents, dim)
			evals.Add(int64(cfg.K * (cfg.K - 1)))
			sweep(len(data), dim, func(lo, hi int) {
				span := 0
				for i := lo; i < hi; i++ {
					c, _, e := search.nearest(data[i], assign[i])
					assign[i] = c
					span += e
				}
				evals.Add(int64(span))
			})
		}

		// Update step. A centroid sums its own points in index order —
		// the order of the serial loop over all points — so the centroids
		// spread over the workers and the sums do not show it.
		clear(counts)
		for _, c := range assign {
			counts[c]++
		}
		end := 0
		for c, n := range counts {
			end += n
			ends[c] = end - n
		}
		for i, c := range assign {
			members[ends[c]] = int32(i)
			ends[c]++
		}
		par.Spans(runtime.GOMAXPROCS(0), cfg.K, max(1, (1<<16)*cfg.K/(len(data)*dim)), func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				row := next[c*dim : (c+1)*dim]
				clear(row)
				for _, i := range members[ends[c]-counts[c] : ends[c]] {
					vec.Add(row, row, data[i])
				}
				if counts[c] > 0 {
					vec.Scale(row, 1/float64(counts[c]), row)
				}
			}
		})
		var moved float64
		for c := range counts {
			row := next[c*dim : (c+1)*dim]
			if counts[c] == 0 {
				// Re-seed an empty cluster on a random point.
				copy(row, data[r.IntN(len(data))])
			}
			moved += vec.Dist(row, cents[c*dim:(c+1)*dim])
		}
		cents, next = next, cents
		if moved/float64(cfg.K) < cfg.Tol {
			iters++
			break
		}
	}
	rows := make([][]float64, cfg.K)
	for c := range rows {
		rows[c] = cents[c*dim : (c+1)*dim : (c+1)*dim]
	}
	return &Result{Centroids: rows, Flat: cents, Assign: assign, Stats: Stats{Iters: iters, DistEvals: evals.Load()}}, nil
}

// sweep runs fn over n points of w elements in fixed spans on GOMAXPROCS
// workers. The callers write per-point state only, so nothing of the split
// shows. A span is cut by the work in it, not by a point count: a pruned
// point costs tens of nanoseconds, and a fan-out is only worth its hand-off
// above a few thousand of those.
func sweep(n, w int, fn func(lo, hi int)) {
	par.Spans(runtime.GOMAXPROCS(0), n, max(256, (1<<16)/w), func(_, lo, hi int) { fn(lo, hi) })
}

// NearestFlat returns the index of the row of the contiguous K×w block
// cents closest to v, and its squared distance, by scanning every row: what
// a Searcher's answer is defined by, its fallback where nothing can be
// ruled out, and the single-vector path of PQ encoding. Distances are those
// of vec.SqDist bit for bit, ties go to the lowest index. Rows shorter than
// one vector step (the PQ subspaces) are scanned by a sequential loop
// inlined here — no call and no dispatch per row; longer rows take one
// kernel call each, over a block that stays in L1 while the points stream
// past it.
func NearestFlat(cents []float64, w int, v []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	if w < 8 {
		// The sequential loop over at most seven elements, unrolled: w is
		// fixed for the scan, so the branches below predict perfectly and
		// a row costs little more than its arithmetic.
		var q [7]float64
		copy(q[:], v[:w])
		for c := 0; len(cents) >= w; c++ {
			row := cents[:w]
			cents = cents[w:]
			t := q[0] - row[0]
			d := t * t
			if w > 1 {
				t = q[1] - row[1]
				d += t * t
				if w > 2 {
					t = q[2] - row[2]
					d += t * t
					if w > 3 {
						t = q[3] - row[3]
						d += t * t
						if w > 4 {
							t = q[4] - row[4]
							d += t * t
							if w > 5 {
								t = q[5] - row[5]
								d += t * t
								if w > 6 {
									t = q[6] - row[6]
									d += t * t
								}
							}
						}
					}
				}
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		return best, bestD
	}
	for c := 0; len(cents) >= w; c++ {
		if d := vec.SqDist(cents[:w], v); d < bestD {
			best, bestD = c, d
		}
		cents = cents[w:]
	}
	return best, bestD
}

// Nearest returns the index of the centroid closest to v, for search-time
// probing over centroid rows.
func Nearest(centroids [][]float64, v []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := vec.SqDist(cent, v); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// NearestNInto is NearestN writing the winning indexes into dst (whose
// capacity is reused) and using dists as the parallel distance scratch, so
// per-query probing on a pooled buffer allocates nothing. Both slices are
// returned re-sliced to the result length.
func NearestNInto(dst []int, dists []float64, centroids [][]float64, v []float64, n int) ([]int, []float64) {
	dst = dst[:0]
	dists = dists[:0]
	for c, cent := range centroids {
		d := vec.SqDist(cent, v)
		if len(dst) == n && d >= dists[len(dists)-1] {
			continue
		}
		pos := 0
		for pos < len(dst) && dists[pos] <= d {
			pos++
		}
		dst = append(dst, 0)
		dists = append(dists, 0)
		copy(dst[pos+1:], dst[pos:])
		copy(dists[pos+1:], dists[pos:])
		dst[pos] = c
		dists[pos] = d
		if len(dst) > n {
			dst = dst[:n]
			dists = dists[:n]
		}
	}
	return dst, dists
}

// NearestN returns the indexes of the n closest centroids, closest first.
func NearestN(centroids [][]float64, v []float64, n int) []int {
	idx, _ := NearestNInto(nil, nil, centroids, v, n)
	return idx
}

// seedPlusPlus implements k-means++ (D² sampling), returning the K×dim
// seed block and every point's nearest seed, lowest index on ties. The pick
// is serial; the distance update after each pick runs over the points in
// parallel, and offers the new seed only to the points it can win: those
// whose current seed lies within reach of it.
func seedPlusPlus(r *rng.Rand, data [][]float64, k int, evals *atomic.Int64) ([]float64, []int) {
	dim := len(data[0])
	cents := make([]float64, 0, k*dim)
	cents = append(cents, data[r.IntN(len(data))]...)
	assign := make([]int, len(data))
	d2 := make([]float64, len(data))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	// far[s] is what seed s's points must be nearer than to be out of the
	// newest seed's reach: reach inverted on the seed–seed distance.
	far := make([]float64, k)
	for j := 0; ; j++ {
		c := cents[j*dim:]
		var q [7]float64
		copy(q[:], c)
		vec.SqDistRows(far[:j], cents[:j*dim], c)
		for s, d := range far[:j] {
			far[s] = (d - reachFloor) / reachFactor
		}
		evals.Add(int64(j))
		sweep(len(data), dim, func(lo, hi int) {
			span := 0
			for i := lo; i < hi; i++ {
				if d2[i] < far[assign[i]] {
					continue
				}
				span++
				if d := sqDist(&q, c, data[i]); d < d2[i] {
					d2[i], assign[i] = d, j
				}
			}
			evals.Add(int64(span))
		})
		if j == k-1 {
			return cents, assign
		}
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.IntN(len(data))
		} else {
			pick = weightedPick(d2, r.Float64()*total)
		}
		cents = append(cents, data[pick]...)
	}
}

// weightedPick returns the first index at which the running sum of the
// weights reaches target. Rounding can leave target above zero after the
// last subtraction (a draw near 1): the pick is then the last index with
// any weight — never index 0, which may weigh nothing because it already is
// a seed.
func weightedPick(weights []float64, target float64) int {
	pick := 0
	for i, w := range weights {
		if w > 0 {
			pick = i
		}
		target -= w
		if target <= 0 {
			break
		}
	}
	return pick
}
