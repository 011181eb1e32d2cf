// Package kmeans implements Lloyd's algorithm with k-means++ seeding and
// parallel assignment — the coarse quantizer behind the IVF index
// (inverted files are one of the k-ANNS index families the paper surveys
// in Sections I and VIII).
package kmeans

import (
	"fmt"
	"math"
	"runtime"

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
	// Tol stops early when the mean centroid movement falls below it
	// (default 1e-4 of the data scale).
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
	// Iters is the number of Lloyd iterations performed.
	Iters int
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
	r := rng.NewSeeded(cfg.Seed ^ 0x43a9)

	cents := seedPlusPlus(r, data, cfg.K)
	next := make([]float64, len(cents))
	assign := make([]int, len(data))
	counts := make([]int, cfg.K)

	var iters int
	for iters = 0; iters < cfg.MaxIters; iters++ {
		// Assignment step (parallel).
		sweep(len(data), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				assign[i], _ = NearestFlat(cents, dim, data[i])
			}
		})

		// Update step.
		clear(next)
		clear(counts)
		for i, c := range assign {
			row := next[c*dim : (c+1)*dim]
			vec.Add(row, row, data[i])
			counts[c]++
		}
		var moved float64
		for c := range counts {
			row := next[c*dim : (c+1)*dim]
			if counts[c] == 0 {
				// Re-seed an empty cluster on a random point.
				copy(row, data[r.IntN(len(data))])
			} else {
				vec.Scale(row, 1/float64(counts[c]), row)
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
	return &Result{Centroids: rows, Flat: cents, Assign: assign, Iters: iters}, nil
}

// sweep runs fn over the points in fixed spans on GOMAXPROCS workers. The
// callers write per-point state only, so nothing of the split shows.
func sweep(n int, fn func(lo, hi int)) {
	par.Spans(runtime.GOMAXPROCS(0), n, 256, func(_, lo, hi int) { fn(lo, hi) })
}

// NearestFlat returns the index of the row of the contiguous K×w block
// cents closest to v, and its squared distance: the one nearest-centroid
// routine behind Lloyd assignment and PQ encoding. Distances are those of
// vec.SqDist bit for bit, ties go to the lowest index. Rows shorter than
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
// seed block. The pick is serial; the distance update after each pick runs
// over the points in parallel.
func seedPlusPlus(r *rng.Rand, data [][]float64, k int) []float64 {
	dim := len(data[0])
	cents := make([]float64, 0, k*dim)
	cents = append(cents, data[r.IntN(len(data))]...)
	d2 := make([]float64, len(data))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(cents) < k*dim {
		c := cents[len(cents)-dim:]
		sweep(len(data), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := vec.SqDist(data[i], c); d < d2[i] {
					d2[i] = d
				}
			}
		})
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.IntN(len(data))
		} else {
			target := r.Float64() * total
			for i, d := range d2 {
				target -= d
				if target <= 0 {
					pick = i
					break
				}
			}
		}
		cents = append(cents, data[pick]...)
	}
	return cents
}
