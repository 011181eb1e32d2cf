// Package resultheap provides the ordered candidate sets the search
// algorithms keep:
//
//   - Pool: the ascending candidate pool of every graph beam walk (HNSW
//     build and search, NSG build and search), which is at once the walk's
//     frontier and its bounded result set;
//   - MaxDistHeap: a distance-keyed bounded max-heap, the top-k of IVF's
//     list scans and of the flat scans;
//   - CompareHeap: a bounded max-heap ordered only by an opaque pairwise
//     comparator. The refine phase of the paper's Algorithm 2 needs this
//     because DCE reveals the *sign* of a distance comparison, never a
//     distance value, so the heap cannot store keys.
package resultheap

// Item is an (id, dist) pair: a search answer and a MaxDistHeap entry.
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

// Pool is the candidate pool of a graph beam search (the NSG/DiskANN
// search-pool shape): at most ef candidates, ascending by distance, which
// is both the walk's frontier and its result set. The walk expands the
// closest unexpanded entry until none is left. On distinct distances that
// expands exactly what a candidate min-heap beside a result max-heap of
// width ef expands, in the same order. Ties go by arrival: an entry lands
// after every equal one, and a full pool refuses a candidate equal to its
// worst. The pool grows only by append, so an absurd ef costs nothing up
// front. The zero Pool is ready for Reset, which keeps the storage.
type Pool struct {
	c    []Cand
	next int // every entry before next is expanded
}

// Reset empties the pool and seeds it with the walk's entry point.
func (p *Pool) Reset(id int32, dist float64) {
	p.c = append(p.c[:0], Cand{Dist: dist, ID: id})
	p.next = 0
}

// Offer admits candidate id at dist into a pool of width ef: below ef it
// always enters; at ef it displaces the worst entry iff it is strictly
// closer.
func (p *Pool) Offer(id int32, dist float64, ef int) {
	n := len(p.c)
	if n >= ef && dist >= p.c[n-1].Dist {
		return
	}
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.c[m].Dist <= dist {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if n < ef {
		p.c = append(p.c, Cand{})
	}
	copy(p.c[lo+1:], p.c[lo:len(p.c)-1])
	p.c[lo] = Cand{Dist: dist, ID: id}
	p.next = min(p.next, lo)
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

// MaxDistHeap is a max-heap keyed by distance (farthest on top), used as
// a bounded top-k. It is 4-ary rather than binary: half the depth per
// sift, and a node's four children (64 bytes of Items) sit on one cache
// line. The arity is a pure layout choice — the pop sequence for distinct
// keys is unchanged.
type MaxDistHeap struct{ items []Item }

// NewMaxDistHeap returns an empty max-heap with the given capacity hint.
func NewMaxDistHeap(capHint int) *MaxDistHeap {
	return &MaxDistHeap{items: make([]Item, 0, capHint)}
}

// Len returns the number of items.
func (h *MaxDistHeap) Len() int { return len(h.items) }

// Push inserts an (id, dist) pair.
func (h *MaxDistHeap) Push(id int, dist float64) {
	h.items = append(h.items, Item{ID: id, Dist: dist})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h.items[parent].Dist >= h.items[i].Dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// Top returns the farthest item without removing it.
func (h *MaxDistHeap) Top() Item { return h.items[0] }

// PushBounded inserts (id, dist) while keeping the heap at no more than
// bound items: below the bound it behaves like Push; at the bound it
// replaces the root iff dist beats it, with a single sift-down — one
// traversal instead of the sift-up plus sift-down a push-then-pop costs.
func (h *MaxDistHeap) PushBounded(id int, dist float64, bound int) {
	if len(h.items) < bound {
		h.Push(id, dist)
		return
	}
	if dist >= h.items[0].Dist {
		return
	}
	h.items[0] = Item{ID: id, Dist: dist}
	h.siftDown(0)
}

// Pop removes and returns the farthest item.
func (h *MaxDistHeap) Pop() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// siftDown carries the item at i down a hole: each level moves the
// farthest child (the first of equals) up while it is strictly farther
// than the item, and the item is written once, where the hole stops.
func (h *MaxDistHeap) siftDown(i int) {
	items := h.items
	x := items[i]
	for {
		big, bigDist := i, x.Dist
		for c := 4*i + 1; c < min(4*i+5, len(items)); c++ {
			if items[c].Dist > bigDist {
				big, bigDist = c, items[c].Dist
			}
		}
		if big == i {
			break
		}
		items[i] = items[big]
		i = big
	}
	items[i] = x
}

// SortedAscending drains the heap and returns its items ordered from
// closest to farthest.
func (h *MaxDistHeap) SortedAscending() []Item {
	return h.SortedInto(nil)
}

// SortedInto is SortedAscending writing into dst (reusing its capacity),
// so steady-state callers avoid the per-drain allocation.
func (h *MaxDistHeap) SortedInto(dst []Item) []Item {
	n := len(h.items)
	if cap(dst) < n {
		dst = make([]Item, n)
	} else {
		dst = dst[:n]
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = h.Pop()
	}
	return dst
}

// Reset empties the heap while keeping its storage.
func (h *MaxDistHeap) Reset() { h.items = h.items[:0] }
