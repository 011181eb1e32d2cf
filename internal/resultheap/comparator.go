package resultheap

// Comparator is an opaque pairwise comparator: Farther(a, b) reports
// whether candidate a is strictly farther from the (implicit) query than
// candidate b. In the PP-ANNS refine phase it is backed by DCE's
// DistanceComp, so each call is a secure distance comparison the server
// cannot learn values from. Hot paths that must not allocate pass a pooled
// struct pointer here instead of a fresh closure.
type Comparator interface {
	Farther(a, b int) bool
}

// CompareHeap is a bounded max-heap over candidate ids ordered only by a
// Comparator. It implements the max heap H of the paper's
// Algorithm 2: the top element is the current worst (farthest) of the best k
// candidates seen so far.
//
// The heap counts comparator invocations so experiments can report the
// number of secure distance comparisons a search performed.
//
// The zero CompareHeap is usable after Reset, and Reset reuses the id
// storage, so a pooled heap performs no steady-state allocation.
type CompareHeap struct {
	cmp   Comparator
	ids   []int
	bound int
	calls int
}

// Reset re-arms the heap for a new selection with the given bound and
// comparator, keeping the id storage and zeroing the comparison counter.
func (h *CompareHeap) Reset(bound int, cmp Comparator) {
	if bound <= 0 {
		panic("resultheap: CompareHeap bound must be positive")
	}
	if cap(h.ids) < bound {
		h.ids = make([]int, 0, bound)
	} else {
		h.ids = h.ids[:0]
	}
	h.cmp = cmp
	h.bound = bound
	h.calls = 0
}

// Len returns the number of ids held.
func (h *CompareHeap) Len() int { return len(h.ids) }

// Comparisons returns how many times the comparator has been invoked.
func (h *CompareHeap) Comparisons() int { return h.calls }

func (h *CompareHeap) fartherCounted(a, b int) bool {
	h.calls++
	return h.cmp.Farther(a, b)
}

// Offer considers candidate id for membership. While the heap is below its
// bound the id is inserted unconditionally (Algorithm 2 lines 4–6).
// Otherwise id replaces the current top iff the top is farther than id
// (lines 7–9). It returns true when the id was admitted.
func (h *CompareHeap) Offer(id int) bool {
	if len(h.ids) < h.bound {
		h.ids = append(h.ids, id)
		h.siftUp(len(h.ids) - 1)
		return true
	}
	if !h.fartherCounted(h.ids[0], id) {
		return false
	}
	h.ids[0] = id
	h.siftDown(0)
	return true
}

// pop removes and returns the farthest id.
func (h *CompareHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// SortedInto drains the heap into dst (reusing its capacity; nil
// allocates), returning ids ordered from closest to farthest. Each
// extraction costs O(log k) comparator calls.
func (h *CompareHeap) SortedInto(dst []int) []int {
	n := len(h.ids)
	if cap(dst) < n {
		dst = make([]int, n)
	} else {
		dst = dst[:n]
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = h.pop()
	}
	return dst
}

func (h *CompareHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.fartherCounted(h.ids[i], h.ids[parent]) {
			return
		}
		h.ids[parent], h.ids[i] = h.ids[i], h.ids[parent]
		i = parent
	}
}

func (h *CompareHeap) siftDown(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.fartherCounted(h.ids[l], h.ids[big]) {
			big = l
		}
		if r < n && h.fartherCounted(h.ids[r], h.ids[big]) {
			big = r
		}
		if big == i {
			return
		}
		h.ids[i], h.ids[big] = h.ids[big], h.ids[i]
		i = big
	}
}
