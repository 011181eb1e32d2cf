// Package resultheap provides the ordered candidate sets the search
// algorithms keep:
//
//   - Pool: the one distance-keyed bounded top-k. It is the candidate pool
//     of every graph beam walk (HNSW build and search, NSG build and
//     search), at once the walk's frontier and its result set, and the
//     plain top-k of every scan: IVF's probe pick and list scan, the
//     two-tier filter merge, the exact ground truth and the flat scans;
//   - CompareHeap: a bounded max-heap ordered only by an opaque pairwise
//     comparator. The refine phase of the paper's Algorithm 2 needs this
//     because DCE reveals the *sign* of a distance comparison, never a
//     distance value, so the heap cannot store keys.
package resultheap

import (
	"math"
	"unsafe"
)

// Item is an (id, dist) pair: a search answer.
type Item struct {
	ID   int
	Dist float64
}

// Cand is one Pool entry: a candidate, its distance to the query, and
// whether the walk has expanded it.
type Cand struct {
	Dist     float64
	ID       int32
	expanded bool
}

// Pool is a bounded top-k by distance: at most ef candidates, ascending.
// Ties go by arrival: an entry lands after every equal one, and a full
// pool refuses a candidate equal to its worst, so a pool fed a sequence
// holds a stable sort of it by distance, cut to ef. A scan only offers
// and reads; a graph beam search (the NSG/DiskANN search-pool shape) also
// expands the closest unexpanded entry until none is left, so the pool is
// both the walk's frontier and its result set. On distinct distances that
// expands exactly what a candidate min-heap beside a result max-heap of
// width ef expands, in the same order. The pool grows only by append, so
// an absurd ef costs nothing up front. The zero Pool is empty; Reset
// empties it again and keeps the storage.
//
// Distances are ranked by their IEEE bit patterns, which order every
// value ≥ +0 as the floats do and put a NaN after +Inf. Every caller
// offers sums of squares (squared distances, PQ table sums, merges of
// those), which are never negative, so that is their float order; a
// negative distance or −0 is outside the contract and sorts after NaN.
type Pool struct {
	c    []Cand
	next int // every entry before next is expanded
}

// Reset empties the pool.
func (p *Pool) Reset() {
	p.c = p.c[:0]
	p.next = 0
}

// Offer admits candidate id at dist into a pool of width ef: below ef it
// always enters; at ef it displaces the worst entry iff it is strictly
// closer. A pool of width 0 admits nothing.
func (p *Pool) Offer(id int32, dist float64, ef int) {
	key := math.Float64bits(dist)
	c := p.c
	n := len(c)
	if n >= ef && (n == 0 || distBits(&c[n-1]) <= key) {
		return
	}
	// It lands after every entry at or below key. The search halves a
	// window that always holds that position; each step turns an integer
	// compare into 0 or 1 and moves by a mask of it, so no branch depends
	// on the distances (a float compare, or this one as an if, compiles to
	// a conditional jump).
	lo := 0
	for size := n; size > 1; {
		half := size >> 1
		lo += half & -oneIf(distBits(&c[lo+half]) <= key)
		size -= half
	}
	if n > 0 {
		lo += oneIf(distBits(&c[lo]) <= key)
	}
	if n < ef {
		c = append(c, Cand{})
		p.c = c
	}
	copy(c[lo+1:], c[lo:len(c)-1])
	c[lo] = Cand{Dist: dist, ID: id}
	p.next = min(p.next, lo)
}

// distBits is the bit pattern of c.Dist as one integer load: through
// math.Float64bits, a value read from the slice can detour through a stack
// slot on its way to the compare.
func distBits(c *Cand) uint64 { return *(*uint64)(unsafe.Pointer(&c.Dist)) }

// oneIf is 1 when b holds, else 0, by a SETcc.
func oneIf(b bool) int {
	i := 0
	if b {
		i = 1
	}
	return i
}

// Expand marks the closest unexpanded entry expanded and returns its id;
// ok is false once every entry is expanded, which ends the walk.
func (p *Pool) Expand() (id int32, ok bool) {
	for i := p.next; i < len(p.c); i++ {
		if !p.c[i].expanded {
			p.c[i].expanded = true
			p.next = i + 1
			return p.c[i].ID, true
		}
	}
	p.next = len(p.c)
	return 0, false
}

// Cands returns the entries, closest first. The slice is the pool's own
// storage: it is valid until the next Reset or Offer.
func (p *Pool) Cands() []Cand { return p.c }

// AppendItems appends the closest k entries, closest first, to dst[:0].
func (p *Pool) AppendItems(dst []Item, k int) []Item {
	dst = dst[:0]
	for _, c := range p.c[:min(k, len(p.c))] {
		dst = append(dst, Item{ID: int(c.ID), Dist: c.Dist})
	}
	return dst
}
