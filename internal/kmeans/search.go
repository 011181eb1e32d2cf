package kmeans

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"ppanns/internal/par"
	"ppanns/internal/vec"
)

const (
	// reach bounds, in squared distances, how far from a centroid at squared
	// distance d another one can sit and still be as close: twice the
	// distance by the triangle inequality, widened by a relative 1e-9 —
	// four orders above the rounding error of a 960-term distance — and by
	// an absolute 1e-300 for differences whose squares underflow.
	reachFactor = 4 * (1 + 1e-9) * (1 + 1e-9)
	reachFloor  = 1e-300

	// listLen caps a centroid's neighbour list. A search whose radius
	// outruns the list scans every centroid instead.
	listLen = 32
)

func reach(d float64) float64 { return d*reachFactor + reachFloor }

// Searcher finds the nearest row of one K×w centroid block without scanning
// the block. Each centroid keeps its nearest neighbours sorted by centre–
// centre distance; from a guess a, only a centroid b with d(a,b) ≤ 2·d(x,a)
// can be as close to x as a, so the search walks a's list up to that radius,
// moves to the first b that is closer (or as close with a lower index) and
// returns when a whole radius finds none. Every centroid it skips is
// strictly farther in the computed distances too — the radius is widened by
// more than they can err, see reach — so index and distance are NearestFlat's
// bit for bit, from any guess. Where nothing can be ruled out (the radius
// covers the list) the answer is the full scan's.
//
// A Searcher is read-only once built and may be shared by goroutines.
type Searcher struct {
	cents []float64
	w, k  int
	// lists holds k lists of l entries, ascending. An entry is the bits of
	// the squared centre–centre distance with the low idBits replaced by
	// the neighbour's index: one integer sort orders a list, and the stored
	// distance is rounded down, which only ever widens a scan.
	lists  []uint64
	l      int
	idMask uint64
	// first is the centroids' first coordinate ascending and order the
	// centroid that holds each: Guess's table.
	first []float64
	order []int32
	// rows is Reset's scratch: a row of centre–centre distances per worker.
	rows []float64
}

// NewSearcher builds the search structure for the k = len(cents)/w rows of
// cents, which it keeps a reference to.
func NewSearcher(cents []float64, w int) *Searcher {
	s := &Searcher{}
	s.Reset(cents, w)
	return s
}

// Reset rebuilds the structure for a block whose centroids have moved,
// reusing the receiver's memory: k·(k−1) centre–centre distances and one
// bounded insertion sort per centroid, spread over GOMAXPROCS workers by
// row (a list depends on its own row alone).
func (s *Searcher) Reset(cents []float64, w int) {
	k := len(cents) / w
	s.cents, s.w, s.k = cents, w, k
	s.l = min(k-1, listLen)
	s.idMask = 1<<bits.Len(uint(k-1)) - 1
	s.lists = slices.Grow(s.lists[:0], k*s.l)[:k*s.l]
	s.first = slices.Grow(s.first[:0], k)[:k]
	s.order = slices.Grow(s.order[:0], k)[:k]

	for c := range s.order {
		s.order[c] = int32(c)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		if c := cmp.Compare(cents[int(a)*w], cents[int(b)*w]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i, c := range s.order {
		s.first[i] = cents[int(c)*w]
	}

	if s.l == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	s.rows = slices.Grow(s.rows[:0], workers*k)[:workers*k]
	par.Spans(workers, k, max(1, (1<<18)/(k*w)), func(worker, lo, hi int) {
		dist := s.rows[worker*k : (worker+1)*k]
		for a := lo; a < hi; a++ {
			vec.SqDistRows(dist, cents, cents[a*w:(a+1)*w])
			s.fillList(a, dist)
		}
	})
}

// fillList writes centroid a's list from its row of centre–centre
// distances: the l smallest keys, by insertion into the sorted prefix.
func (s *Searcher) fillList(a int, dist []float64) {
	lst := s.lists[a*s.l : (a+1)*s.l]
	m := 0
	for b, d := range dist {
		if b == a {
			continue
		}
		e := math.Float64bits(d)&^s.idMask | uint64(b)
		if m == len(lst) {
			if e >= lst[m-1] {
				continue
			}
			m--
		}
		i := m
		for ; i > 0 && lst[i-1] > e; i-- {
			lst[i] = lst[i-1]
		}
		lst[i] = e
		m++
	}
}

// Guess returns a starting centroid for v when the caller has none: the one
// whose first coordinate is nearest v's.
func (s *Searcher) Guess(v []float64) int {
	i := sort.SearchFloat64s(s.first, v[0])
	if i == s.k || i > 0 && v[0]-s.first[i-1] < s.first[i]-v[0] {
		i--
	}
	return int(s.order[i])
}

// Nearest returns what NearestFlat(cents, w, v) returns — the nearest
// centroid's index, lowest on ties, and its squared distance, bit for bit —
// starting from any guess in [0, k). A point with a distance that is not
// finite gets the full scan, so NaN and ±Inf coordinates are answered
// exactly as NearestFlat answers them.
func (s *Searcher) Nearest(v []float64, guess int) (int, float64) {
	c, d, _ := s.nearest(v, guess)
	return c, d
}

// nearest is Nearest, also counting the distances it evaluated.
func (s *Searcher) nearest(v []float64, guess int) (best int, bestD float64, evals int) {
	w := s.w
	var q [7]float64
	copy(q[:], v)
	a := guess
	da := sqDist(&q, v, s.cents[a*w:(a+1)*w])
	evals = 1
walk:
	for da < math.Inf(1) {
		limit := math.Float64bits(reach(da)) | s.idMask
		for _, e := range s.lists[a*s.l : (a+1)*s.l] {
			if e > limit {
				return a, da, evals
			}
			b := int(e & s.idMask)
			db := sqDist(&q, v, s.cents[b*w:(b+1)*w])
			evals++
			if db < da || db == da && b < a {
				a, da = b, db
				continue walk
			}
		}
		if s.l == s.k-1 {
			return a, da, evals
		}
		break
	}
	best, bestD = NearestFlat(s.cents, w, v)
	return best, bestD, evals + s.k
}

// sqDist is the squared distance between a fixed vector and row in the bits
// NearestFlat computes: its sequential loop below one vector step (q holds a
// copy of the fixed vector then), the kernel from there on.
func sqDist(q *[7]float64, fixed, row []float64) float64 {
	if len(row) >= 8 {
		return vec.SqDist(row, fixed)
	}
	return sqDistShort(q, row, len(row))
}

// sqDistShort is the sequential squared distance over w < 8 elements,
// unrolled: w is fixed for a scan, so the branches predict perfectly and a
// row costs little more than its arithmetic. NearestFlat carries the same
// arithmetic inline: as a call per row its scan is half again as slow.
func sqDistShort(q *[7]float64, row []float64, w int) float64 {
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
	return d
}
