// Package kmeans implements Lloyd's algorithm with k-means++ seeding — the
// coarse quantizer behind the IVF index (inverted files are one of the
// k-ANNS index families the paper surveys in Sections I and VIII) and the
// per-subspace quantizer of the PQ tier.
//
// Wherever a block of points meets a block of centroids — a Lloyd
// reassignment, a k-means++ update, PQ encoding, an IVF fold — the nearest
// centroid comes from one of two searches, picked by the row width alone.
// Rows narrower than WideRow (every PQ subspace here) go through the block
// kernel: the points stored transposed, one per vector lane, every centroid
// offered to every point. At such widths a distance costs about what the
// branch on its outcome does, so scanning all K beats ruling centroids out.
// Wider rows (IVF) go through a Searcher, which rules centroids out by the
// triangle inequality from a guess (the point's previous centroid, in
// Lloyd) and evaluates the few that are left; on data with no cluster
// structure it degenerates to the full scan. Both are exact: index and
// distance are NearestFlat's bit for bit, lowest index on ties, so
// centroids, assignments, codes and lists are the bytes a full scan
// produces. NearestFlat itself remains as the single-point path and the
// test oracle.
package kmeans

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"ppanns/internal/par"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Config parameterizes a clustering run.
type Config struct {
	// K is the number of centroids (required).
	K int
	// MaxIters bounds Lloyd iterations (default 25). A run stops sooner at
	// Lloyd's fixed point: an iteration that moved no centroid, after
	// which every further one would repeat it bit for bit. Result.Iters
	// says what a run did.
	MaxIters int
	// Seed drives k-means++ seeding.
	Seed uint64
}

// Result is a fitted clustering.
type Result struct {
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
// Stats.DistEvals is n·K·Iters for rows narrower than WideRow; for wider
// ones it counts what the pruned searches evaluated.
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
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("kmeans: zero-dimensional data")
	}
	r := rng.NewSeeded(cfg.Seed ^ 0x43a9)

	// Rows narrower than WideRow go through the block kernel, on a copy of
	// the points stored transposed: coordinate j of point i at
	// cols[j*n+i].
	n := len(data)
	var cols []float64
	if dim < WideRow {
		cols = make([]float64, dim*n)
		for i, v := range data {
			for j, x := range v[:dim] {
				cols[j*n+i] = x
			}
		}
	}

	// Seeding leaves every point on its nearest seed: iteration 0's
	// assignment.
	var evals atomic.Int64
	cents, assign := seedPlusPlus(r, data, cols, cfg.K, &evals)
	next := make([]float64, len(cents))
	counts := make([]int, cfg.K)
	var search Searcher
	var dist []float64
	if cols != nil {
		dist = make([]float64, n)
	}

	var iters int
	for iters = 0; iters < cfg.MaxIters; iters++ {
		// Assignment step (parallel): every centroid offered to every
		// point for short rows, a pruned search from each point's previous
		// centroid for wide ones.
		if iters > 0 && cols != nil {
			sweep(n, dim, func(lo, hi int) {
				NearestBlock(assign[lo:hi], dist[lo:hi], cols[lo:], n, dim, cents)
			})
			evals.Add(int64(n * cfg.K))
		} else if iters > 0 {
			search.Reset(cents, dim)
			evals.Add(int64(cfg.K * (cfg.K - 1)))
			sweep(n, dim, func(lo, hi int) {
				span := 0
				for i := lo; i < hi; i++ {
					c, _, e := search.nearest(data[i], assign[i])
					assign[i] = c
					span += e
				}
				evals.Add(int64(span))
			})
		}

		// Update step, in index order: each centroid sums its points in
		// the order they come.
		clear(next)
		clear(counts)
		for i, c := range assign {
			row := next[c*dim : (c+1)*dim]
			vec.Add(row, row, data[i])
			counts[c]++
		}
		moved := false
		for c, m := range counts {
			row := next[c*dim : (c+1)*dim]
			if m == 0 {
				// Re-seed an empty cluster on a random point.
				copy(row, data[r.IntN(n)])
			} else {
				vec.Scale(row, 1/float64(m), row)
			}
			moved = moved || !slices.Equal(row, cents[c*dim:(c+1)*dim])
		}
		cents, next = next, cents
		if !moved {
			iters++
			break
		}
	}
	return &Result{Flat: cents, Assign: assign, Stats: Stats{Iters: iters, DistEvals: evals.Load()}}, nil
}

// sweep runs fn over n points of w elements in fixed spans on GOMAXPROCS
// workers. The callers write per-point state only, so nothing of the split
// shows. A span is cut by the work in it, not by a point count: a pruned
// point or a seed offered to a short one costs nanoseconds to tens of them,
// and a fan-out is only worth its hand-off above a few thousand of those.
func sweep(n, w int, fn func(lo, hi int)) {
	par.Spans(runtime.GOMAXPROCS(0), n, max(256, (1<<16)/w), func(_, lo, hi int) { fn(lo, hi) })
}

// NearestFlat returns the index of the row of the contiguous K×w block
// cents closest to v, and its squared distance, by scanning every row: what
// the block kernel and a Searcher's answers are defined by, and the
// single-point path of PQ encoding. Distances are those of vec.SqDist bit
// for bit, ties go to the lowest index. Rows narrower than WideRow (the PQ
// subspaces) are scanned by the block kernel's sequential reference on a
// block of one point — no call and no dispatch per row; wider rows take one
// kernel call each, over a block that stays in L1 while the points stream
// past it.
func NearestFlat(cents []float64, w int, v []float64) (int, float64) {
	if w < WideRow {
		best, idx := [1]float64{math.Inf(1)}, [1]int{}
		nearestBlockScalar(best[:], idx[:], v, 1, w, cents, 0)
		return idx[0], best[0]
	}
	best, bestD := 0, math.Inf(1)
	for c := 0; len(cents) >= w; c++ {
		if d := vec.SqDist(cents[:w], v); d < bestD {
			best, bestD = c, d
		}
		cents = cents[w:]
	}
	return best, bestD
}

// seedPlusPlus implements k-means++ (D² sampling), returning the K×dim
// seed block and every point's nearest seed, lowest index on ties. The pick
// is serial; the distance update after each pick runs over the points in
// parallel. With cols — the points transposed, for rows narrower than
// WideRow — each new seed is offered to every point through the block
// kernel; wider rows are offered it only where it can win: at points whose
// current seed lies within reach of it.
func seedPlusPlus(r *rng.Rand, data [][]float64, cols []float64, k int, evals *atomic.Int64) ([]float64, []int) {
	n, dim := len(data), len(data[0])
	cents := make([]float64, 0, k*dim)
	cents = append(cents, data[r.IntN(n)]...)
	assign := make([]int, n)
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	// far[s] is what seed s's points must be nearer than to be out of the
	// newest seed's reach: reach inverted on the seed–seed distance.
	var far []float64
	if cols == nil {
		far = make([]float64, k)
	}
	for j := 0; ; j++ {
		c := cents[j*dim : (j+1)*dim]
		if cols != nil {
			sweep(n, dim, func(lo, hi int) {
				nearestBlock(d2[lo:hi], assign[lo:hi], cols[lo:], n, dim, c, j)
			})
			evals.Add(int64(n))
		} else {
			vec.SqDistRows(far[:j], cents[:j*dim], c)
			for s, d := range far[:j] {
				far[s] = (d - reachFloor) / reachFactor
			}
			evals.Add(int64(j))
			sweep(n, dim, func(lo, hi int) {
				span := 0
				for i := lo; i < hi; i++ {
					if d2[i] < far[assign[i]] {
						continue
					}
					span++
					if d := vec.SqDist(data[i], c); d < d2[i] {
						d2[i], assign[i] = d, j
					}
				}
				evals.Add(int64(span))
			})
		}
		if j == k-1 {
			return cents, assign
		}
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.IntN(n)
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
