// Package resultheap provides the priority queues used by the search
// algorithms:
//
//   - MinDistHeap / MaxDistHeap: distance-keyed heaps for HNSW's candidate
//     queue and bounded result set;
//   - CompareHeap: a bounded max-heap ordered only by an opaque pairwise
//     comparator. The refine phase of the paper's Algorithm 2 needs this
//     because DCE reveals the *sign* of a distance comparison, never a
//     distance value, so the heap cannot store keys.
package resultheap

// Item is an (id, dist) pair held by the distance-keyed heaps.
type Item struct {
	ID   int
	Dist float64
}

// The distance-keyed heaps are 4-ary rather than binary: half the depth
// per sift, and a node's four children (64 bytes of Items) sit on one
// cache line, so a sift-down touches ~half the lines a binary heap does.
// Graph search spends a measurable slice of the filter phase sifting these
// heaps; the arity is a pure layout choice — ordering semantics and the
// pop sequence for distinct keys are unchanged.

// MinDistHeap is a 4-ary min-heap keyed by distance (closest on top).
type MinDistHeap struct{ items []Item }

// NewMinDistHeap returns an empty min-heap with the given capacity hint.
func NewMinDistHeap(capHint int) *MinDistHeap {
	return &MinDistHeap{items: make([]Item, 0, capHint)}
}

// Len returns the number of items.
func (h *MinDistHeap) Len() int { return len(h.items) }

// Push inserts an (id, dist) pair.
func (h *MinDistHeap) Push(id int, dist float64) {
	h.items = append(h.items, Item{ID: id, Dist: dist})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h.items[parent].Dist <= h.items[i].Dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// Top returns the closest item without removing it.
func (h *MinDistHeap) Top() Item { return h.items[0] }

// Pop removes and returns the closest item.
func (h *MinDistHeap) Pop() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *MinDistHeap) siftDown(i int) {
	n := len(h.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		end := first + 4
		if end > n {
			end = n
		}
		small := i
		for c := first; c < end; c++ {
			if h.items[c].Dist < h.items[small].Dist {
				small = c
			}
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// Reset empties the heap while keeping its storage.
func (h *MinDistHeap) Reset() { h.items = h.items[:0] }

// Load replaces the heap's contents with a copy of items, heapified in
// O(len) — the cheap way to read an unordered set closest-first when only
// a prefix of that order will be consumed.
func (h *MinDistHeap) Load(items []Item) {
	h.items = append(h.items[:0], items...)
	for i := (len(h.items) - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}

// MaxDistHeap is a 4-ary max-heap keyed by distance (farthest on top),
// used as the bounded result set during graph search.
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
// replaces the root iff dist beats it, with a single sift-down. That is the
// admission step of every bounded beam search in the repo, fused so the
// heap pays one traversal instead of the sift-up plus sift-down a
// push-then-pop sequence costs per admitted candidate.
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
	h.siftDown(0)
	return top
}

func (h *MaxDistHeap) siftDown(i int) {
	n := len(h.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		end := first + 4
		if end > n {
			end = n
		}
		big := i
		for c := first; c < end; c++ {
			if h.items[c].Dist > h.items[big].Dist {
				big = c
			}
		}
		if big == i {
			return
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}

// Items returns the backing slice (heap order, not sorted).
func (h *MaxDistHeap) Items() []Item { return h.items }

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
