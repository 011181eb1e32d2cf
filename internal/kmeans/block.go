package kmeans

import (
	"fmt"
	"math"
)

// WideRow is the narrowest row the Searcher serves: one vector step of the
// distance kernels, the width at which NearestFlat leaves its sequential
// loop for vec.SqDist. Narrower rows — every PQ subspace here — go through
// the block kernel, which offers all K centroids to every point for less
// than a pruned search costs at that width.
const WideRow = 8

// NearestBlock sets idx[p] to the index of the row of the K×w block cents
// nearest to point p of the transposed block pts, and dist[p] to its
// squared distance, for each of the len(idx) points: coordinate j of point
// p sits at pts[j*stride+p]. Index and distance are NearestFlat's bit for
// bit, lowest index on ties, and a point with no finite distance gets index
// 0 and +Inf. Rows must be narrower than WideRow.
func NearestBlock(idx []int, dist []float64, pts []float64, stride, w int, cents []float64) {
	dist = dist[:len(idx)]
	for p := range idx {
		idx[p], dist[p] = 0, math.Inf(1)
	}
	nearestBlock(dist, idx, pts, stride, w, cents, 0)
}

// nearestBlock offers the k = len(cents)/w rows of cents, in index order,
// to each of the len(best) points of the transposed block pts, and gives
// point p centroid base+c, at distance d, whenever d < best[p] — strictly,
// so ties keep the lower index and a NaN distance never wins. The distance
// is NearestFlat's sequential loop over the w < WideRow coordinates, lane
// by lane in the vector bodies, every product and sum rounded on its own.
func nearestBlock(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int) {
	if w < 1 || w >= WideRow {
		panic(fmt.Sprintf("kmeans: block kernel on rows of %d floats", w))
	}
	k := len(cents) / w
	if k == 0 || len(best) == 0 {
		return
	}
	_ = pts[(w-1)*stride+len(best)-1] // the last coordinate of the last point
	nearestBlockKernel(best, idx[:len(best)], pts, stride, w, cents[:k*w], base)
}

// nearestBlockScalar is the Go reference of the block kernel, and its body
// wherever AVX2 is not used: four points at a time through offer4, like a
// vector's lanes, then the last one to three one at a time, the centroids
// in index order for each. The branches on w predict perfectly, since w is
// fixed for a call. The float64 conversions forbid fusing a product into
// the sum that takes it, on every architecture.
func nearestBlockScalar(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int) {
	p := 0
	for ; p+4 <= len(best); p += 4 {
		var q [WideRow - 1][4]float64
		for j := range w {
			q[j] = [4]float64(pts[j*stride+p:][:4])
		}
		offer4(&q, w, cents, base, (*[4]float64)(best[p:]), (*[4]int)(idx[p:]))
	}
	for ; p < len(best); p++ {
		var q [WideRow - 1]float64
		for j := range w {
			q[j] = pts[j*stride+p]
		}
		b, bi := best[p], idx[p]
		for c, o := base, 0; o+w <= len(cents); c, o = c+1, o+w {
			row := cents[o : o+w]
			t := q[0] - row[0]
			d := float64(t * t)
			if w > 1 {
				t = q[1] - row[1]
				d += float64(t * t)
				if w > 2 {
					t = q[2] - row[2]
					d += float64(t * t)
					if w > 3 {
						t = q[3] - row[3]
						d += float64(t * t)
						if w > 4 {
							t = q[4] - row[4]
							d += float64(t * t)
							if w > 5 {
								t = q[5] - row[5]
								d += float64(t * t)
								if w > 6 {
									t = q[6] - row[6]
									d += float64(t * t)
								}
							}
						}
					}
				}
			}
			if d < b {
				b, bi = d, c
			}
		}
		best[p], idx[p] = b, bi
	}
}

// offer4 is the reference's loop for four points, whose coordinate j is
// q[j]: each centroid's row is read once for all four, and the four
// distances, each the one-point loop's, are independent chains.
func offer4(q *[WideRow - 1][4]float64, w int, cents []float64, c int, best *[4]float64, idx *[4]int) {
	b0, b1, b2, b3 := best[0], best[1], best[2], best[3]
	i0, i1, i2, i3 := idx[0], idx[1], idx[2], idx[3]
	for ; len(cents) >= w; c++ {
		row := cents[:w]
		cents = cents[w:]
		x := row[0]
		t0, t1, t2, t3 := q[0][0]-x, q[0][1]-x, q[0][2]-x, q[0][3]-x
		d0, d1, d2, d3 := float64(t0*t0), float64(t1*t1), float64(t2*t2), float64(t3*t3)
		if w > 1 {
			d0, d1, d2, d3 = addSq4(&q[1], row[1], d0, d1, d2, d3)
			if w > 2 {
				d0, d1, d2, d3 = addSq4(&q[2], row[2], d0, d1, d2, d3)
				if w > 3 {
					d0, d1, d2, d3 = addSq4(&q[3], row[3], d0, d1, d2, d3)
					if w > 4 {
						d0, d1, d2, d3 = addSq4(&q[4], row[4], d0, d1, d2, d3)
						if w > 5 {
							d0, d1, d2, d3 = addSq4(&q[5], row[5], d0, d1, d2, d3)
							if w > 6 {
								d0, d1, d2, d3 = addSq4(&q[6], row[6], d0, d1, d2, d3)
							}
						}
					}
				}
			}
		}
		if d0 < b0 {
			b0, i0 = d0, c
		}
		if d1 < b1 {
			b1, i1 = d1, c
		}
		if d2 < b2 {
			b2, i2 = d2, c
		}
		if d3 < b3 {
			b3, i3 = d3, c
		}
	}
	*best = [4]float64{b0, b1, b2, b3}
	*idx = [4]int{i0, i1, i2, i3}
}

// addSq4 adds (q[l]−x)² to each of the four distances.
func addSq4(q *[4]float64, x float64, d0, d1, d2, d3 float64) (float64, float64, float64, float64) {
	t0, t1, t2, t3 := q[0]-x, q[1]-x, q[2]-x, q[3]-x
	return d0 + float64(t0*t0), d1 + float64(t1*t1), d2 + float64(t2*t2), d3 + float64(t3*t3)
}
