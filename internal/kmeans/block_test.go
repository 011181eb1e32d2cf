package kmeans

import (
	"math"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

type blockFunc func(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int)

// blockBodies are the block kernel's bodies under test: the Go reference
// here, the AVX2 body where the machine runs it (block_amd64_test.go).
var blockBodies = map[string]blockFunc{"reference": nearestBlockScalar}

// checkBlock offers the rows of cents, numbered from base, to points laid
// out transposed behind a misaligned start and a stride wider than the
// block, from the running state (best0, idx0; +Inf and 0 when nil), and
// holds every body to the per-row oracle — vec.SqDist on each row, kept
// when strictly below the running best — on index and distance bits. From
// a fresh state at base 0 the answer is also NearestFlat's and
// NearestBlock's.
func checkBlock(t *testing.T, cents []float64, w int, points [][]float64, base int, best0 []float64, idx0 []int) {
	t.Helper()
	n, k := len(points), len(cents)/w
	fresh := best0 == nil
	if fresh {
		best0, idx0 = make([]float64, n), make([]int, n)
		for p := range best0 {
			best0[p] = math.Inf(1)
		}
	}
	off, stride := n%3, n+5
	pts := make([]float64, off+w*stride)[off:]
	for p, v := range points {
		for j := range w {
			pts[j*stride+p] = v[j]
		}
	}
	wantD := append([]float64(nil), best0...)
	wantI := append([]int(nil), idx0...)
	for p, v := range points {
		for c := range k {
			if d := vec.SqDist(cents[c*w:(c+1)*w], v); d < wantD[p] {
				wantD[p], wantI[p] = d, base+c
			}
		}
		if fresh && base == 0 {
			fi, fd := NearestFlat(cents, w, v)
			if fi != wantI[p] || math.Float64bits(fd) != math.Float64bits(wantD[p]) {
				t.Fatalf("w=%d k=%d point %d %v: NearestFlat (%d, %v), per-row (%d, %v)", w, k, p, v, fi, fd, wantI[p], wantD[p])
			}
		}
	}
	same := func(body string, gotI []int, gotD []float64) {
		t.Helper()
		for p := range points {
			if gotI[p] != wantI[p] || math.Float64bits(gotD[p]) != math.Float64bits(wantD[p]) {
				t.Fatalf("%s w=%d k=%d n=%d base=%d point %d %v: (%d, %v), per-row (%d, %v)",
					body, w, k, n, base, p, points[p], gotI[p], gotD[p], wantI[p], wantD[p])
			}
		}
	}
	for name, body := range blockBodies {
		gotD := append([]float64(nil), best0...)
		gotI := append([]int(nil), idx0...)
		body(gotD, gotI, pts, stride, w, cents[:k*w], base)
		same(name, gotI, gotD)
	}
	if fresh && base == 0 {
		gotI, gotD := make([]int, n), make([]float64, n)
		NearestBlock(gotI, gotD, pts, stride, w, cents)
		same("NearestBlock", gotI, gotD)
	}
}

// TestNearestBlock holds the block kernel to the per-row scan at every width
// it serves, at centroid counts around its eight- and four-point steps
// (which are the point counts' business: 1 to 17 covers both groups and
// every tail), with numbered offers continuing a running state, on integer
// grids where ties are everywhere, with duplicate centroids, points on a
// centroid or exactly between two, and NaN and ±Inf in points and
// centroids.
func TestNearestBlock(t *testing.T) {
	r := rng.NewSeeded(41)
	nan, inf := math.NaN(), math.Inf(1)
	for w := 1; w < WideRow; w++ {
		for _, k := range []int{1, 7, 8, 9, 255, 256} {
			for n := 1; n <= 17; n++ {
				grid := n%2 == 0
				cents := rng.Gaussian(r, nil, k*w)
				if grid {
					for i := range cents {
						cents[i] = float64(r.IntN(3))
					}
				}
				if k >= 7 {
					copy(cents[5*w:6*w], cents[2*w:3*w]) // duplicates
				}
				points := make([][]float64, n)
				for p := range points {
					c := r.IntN(k)
					v := rng.Gaussian(r, nil, w)
					switch {
					case grid:
						for j := range v {
							v[j] = float64(r.IntN(3))
						}
					case p%5 == 1:
						copy(v, cents[c*w:(c+1)*w]) // on a centroid
					case p%5 == 2 && k >= 2:
						for j := range v { // exactly between c and c' = (c+1)%k
							v[j] = cents[c*w+j] + 1
							cents[((c+1)%k)*w+j] = v[j] + 1
						}
					case p%5 == 3:
						v[r.IntN(w)] = []float64{nan, inf, -inf}[p%3]
					}
					points[p] = v
				}
				if n%4 == 3 {
					cents[r.IntN(k)*w+r.IntN(w)] = []float64{nan, inf, -inf}[n%3]
				}
				checkBlock(t, cents, w, points, 0, nil, nil)

				// The same offers numbered from base, continuing a running
				// state some of which they cannot beat.
				best0, idx0 := make([]float64, n), make([]int, n)
				for p := range best0 {
					best0[p] = []float64{inf, 0, r.Float64() * float64(w), nan}[p%4]
					idx0[p] = -p
				}
				checkBlock(t, cents, w, points, 1000+n, best0, idx0)
			}
		}
	}
}

// blockAround returns 12 points — a group of eight and one of four — with v
// in the lane the trial picks and the rest near random rows of cents.
func blockAround(r *rng.Rand, cents []float64, w int, v []float64, trial int) [][]float64 {
	points := make([][]float64, 12)
	for p := range points {
		points[p] = rng.Gaussian(r, nil, w)
		c := r.IntN(len(cents) / w)
		for j := range w {
			points[p][j] += cents[c*w+j]
		}
	}
	points[trial%12] = v
	return points
}

// TestNearestBlockClusters is TestNearestMatchesFlat's short-row cases on
// the block kernel: clustered and unclustered centroids, duplicates, points
// on one and on three centroids at once, and exact ties between the first
// and last row.
func TestNearestBlockClusters(t *testing.T) {
	r := rng.NewSeeded(31)
	for _, w := range []int{1, 3, 7} {
		for _, k := range []int{1, 2, 5, 40, 256} {
			for _, spread := range []float64{1, 50} {
				centres := rng.Gaussian(r, nil, (k/8+1)*w)
				cents := rng.Gaussian(r, nil, k*w)
				for c := 0; c < k; c++ {
					g := r.IntN(k/8 + 1)
					for i := 0; i < w; i++ {
						cents[c*w+i] += spread * centres[g*w+i]
					}
				}
				if k >= 5 {
					copy(cents[4*w:5*w], cents[1*w:2*w])
					copy(cents[2*w:3*w], cents[1*w:2*w])
				}
				for trial := 0; trial < 40; trial++ {
					v := rng.Gaussian(r, nil, w)
					c := r.IntN(k)
					for i := range v {
						v[i] += cents[c*w+i]
					}
					switch {
					case trial%4 == 1:
						copy(v, cents[c*w:(c+1)*w])
					case trial%4 == 2 && k >= 5:
						copy(v, cents[1*w:2*w])
					case trial%4 == 3 && k >= 2:
						for i := range v {
							cents[i], cents[(k-1)*w+i] = v[i]+1, v[i]-1
						}
					}
					checkBlock(t, cents, w, blockAround(r, cents, w, v, trial), 0, nil, nil)
				}
			}
		}
	}
}

// TestNearestBlockNonFinite is TestNearestNonFinite's short-row cases on the
// block kernel: a centroid that is not finite is never nearer than one that
// is, a point with no finite distance keeps index 0 and +Inf, and
// differences whose squares underflow compare as NearestFlat compares them.
func TestNearestBlockNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []int{1, 3, 7} {
		r := rng.NewSeeded(uint64(w))
		for trial, bad := range []float64{nan, inf, -inf, 1e200, -1e200, 1e-170, 5e-324} {
			const k = 9
			cents := rng.Gaussian(r, nil, k*w)
			v := rng.Gaussian(r, nil, w)
			checkBlock(t, cents, w, blockAround(r, cents, w, v, trial), 0, nil, nil)

			poisoned := append([]float64(nil), cents...)
			poisoned[3*w] = bad
			poisoned[7*w+w-1] = bad
			checkBlock(t, poisoned, w, blockAround(r, cents, w, v, trial+1), 0, nil, nil)

			pv := append([]float64(nil), v...)
			pv[w-1] = bad
			checkBlock(t, cents, w, blockAround(r, cents, w, pv, trial+2), 0, nil, nil)
			checkBlock(t, poisoned, w, blockAround(r, cents, w, pv, trial+3), 0, nil, nil)

			tiny := make([]float64, k*w)
			for i := range tiny {
				tiny[i] = float64(r.IntN(5)) * 2e-162
			}
			checkBlock(t, tiny, w, blockAround(r, tiny, w, tiny[4*w:5*w], trial+4), 0, nil, nil)
			checkBlock(t, tiny, w, blockAround(r, tiny, w, make([]float64, w), trial+5), 0, nil, nil)
		}
	}
}
