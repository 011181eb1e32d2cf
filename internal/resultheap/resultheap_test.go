package resultheap

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ppanns/internal/rng"
)

// TestPoolOrdering: a pool keeps its entries ascending however they
// arrive, bounded by ef, and expands them closest first.
func TestPoolOrdering(t *testing.T) {
	var p Pool
	p.Offer(0, 5, 4)
	for i, d := range []float64{1, 4, 2, 3, 0.5, 6} {
		p.Offer(int32(i+1), d, 4)
	}
	var got []float64
	for _, c := range p.Cands() {
		got = append(got, c.Dist)
	}
	if want := []float64{0.5, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("pool holds %v, want %v", got, want)
	}
	for _, want := range []int32{5, 1, 3, 4} {
		if id, ok := p.Expand(); !ok || id != want {
			t.Fatalf("Expand = %d, %v; want %d", id, ok, want)
		}
	}
	if _, ok := p.Expand(); ok {
		t.Fatal("Expand found an entry in a fully expanded pool")
	}
}

// TestPoolTieRule pins how a pool settles equal distances: an entry lands
// after every entry of equal distance, so equals keep arrival order, and a
// full pool refuses a candidate equal to its worst entry.
func TestPoolTieRule(t *testing.T) {
	var p Pool
	p.Offer(0, 2, 5)
	for i, d := range []float64{1, 2, 1, 3, 2} {
		p.Offer(int32(i+1), d, 5)
	}
	p.Offer(9, 3, 5) // equal to the worst of a full pool: refused
	p.Offer(8, 2, 5) // lands after the 2s, displacing the 3
	var ids []int32
	for _, c := range p.Cands() {
		ids = append(ids, c.ID)
	}
	if want := []int32{1, 3, 0, 2, 5}; !slices.Equal(ids[:5], want) || len(ids) != 5 {
		t.Fatalf("pool ids %v, want %v", ids, want)
	}
	p.Reset()
	p.Offer(0, 2, 5)
	p.Offer(8, 2, 5)
	if ids := p.Cands(); ids[0].ID != 0 || ids[1].ID != 8 {
		t.Fatalf("equal distance did not keep arrival order: %v", ids)
	}
}

// TestPoolExpandAfterInsertAhead: a candidate that lands ahead of the
// entries already expanded is the next one expanded, and expanded entries
// it pushes back are never expanded again.
func TestPoolExpandAfterInsertAhead(t *testing.T) {
	var p Pool
	p.Offer(0, 1, 8)
	p.Offer(1, 2, 8)
	p.Offer(2, 3, 8)
	var order []int32
	for id, ok := p.Expand(); ok; id, ok = p.Expand() {
		order = append(order, id)
		if id == 1 {
			p.Offer(3, 0.5, 8) // ahead of 0 and 1, both expanded
			p.Offer(4, 2.5, 8) // between 1 and 2
		}
	}
	if want := []int32{0, 1, 3, 4, 2}; !slices.Equal(order, want) {
		t.Fatalf("expansion order %v, want %v", order, want)
	}
}

// TestPoolGrowsByAppend: an absurd ef sizes nothing; the pool holds what
// it was offered, and Reset keeps the storage.
func TestPoolGrowsByAppend(t *testing.T) {
	var p Pool
	p.Offer(0, 3, math.MaxInt)
	p.Offer(1, 1, math.MaxInt)
	p.Offer(2, 2, math.MaxInt)
	if n := len(p.Cands()); n != 3 || cap(p.Cands()) > 8 {
		t.Fatalf("pool of 3 offers has len %d cap %d", n, cap(p.Cands()))
	}
	items := p.AppendItems(nil, math.MaxInt)
	if len(items) != 3 || items[0] != (Item{ID: 1, Dist: 1}) || items[2] != (Item{ID: 0, Dist: 3}) {
		t.Fatalf("AppendItems = %v", items)
	}
	before := &p.Cands()[0]
	p.Reset()
	p.Offer(7, 1, 1)
	if &p.Cands()[0] != before || len(p.Cands()) != 1 {
		t.Fatal("Reset did not keep the pool's storage")
	}
}

// TestPoolTopKMatchesStableSort: a pool used as a plain top-k holds what
// a stable sort by distance (equals in arrival order) cut to its width
// holds, ids and distance bits alike, whatever order the offers come in
// and however many of them tie — +0 and +Inf included, and runs where a
// handful of values are all there is.
func TestPoolTopKMatchesStableSort(t *testing.T) {
	var p Pool
	f := func(seed uint64, count uint8) bool {
		r := rng.NewSeeded(seed)
		n := int(count)%100 + 1
		dense := r.IntN(2) == 0 // draw from four values only
		offers := make([]Item, n)
		for i := range offers {
			d := r.Float64()
			switch {
			case dense:
				d = []float64{0, 0.5, 2, math.Inf(1)}[r.IntN(4)]
			case r.IntN(8) == 0:
				d = 0
			case r.IntN(8) == 0:
				d = math.Inf(1)
			case i > 0 && r.IntN(3) == 0:
				d = offers[r.IntN(i)].Dist // a forced duplicate
			}
			offers[i] = Item{ID: i, Dist: d}
		}
		want := slices.Clone(offers)
		slices.SortStableFunc(want, func(a, b Item) int { return cmp.Compare(a.Dist, b.Dist) })
		for _, width := range []int{1, 7, n, n + 5} {
			p.Reset()
			for _, o := range offers {
				p.Offer(int32(o.ID), o.Dist, width)
			}
			got, w := p.Cands(), want[:min(width, n)]
			if len(got) != len(w) {
				return false
			}
			for i := range w {
				if int(got[i].ID) != w[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(w[i].Dist) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolNaNSortsLast pins where a NaN distance goes: after +Inf, in
// arrival order among NaNs, and a full pool whose worst is finite refuses
// one.
func TestPoolNaNSortsLast(t *testing.T) {
	var p Pool
	nan := math.NaN()
	for i, d := range []float64{nan, math.Inf(1), 3, nan, 0, 1} {
		p.Offer(int32(i), d, 10)
	}
	want := []int32{4, 5, 2, 1, 0, 3}
	for i, c := range p.Cands() {
		if c.ID != want[i] {
			t.Fatalf("rank %d holds id %d (dist %v), want id %d", i, c.ID, c.Dist, want[i])
		}
	}
	p.Reset()
	for i, d := range []float64{2, 1} {
		p.Offer(int32(i), d, 2)
	}
	p.Offer(9, nan, 2)
	if got := p.Cands(); got[0].ID != 1 || got[1].ID != 0 {
		t.Fatalf("a full pool admitted a NaN: %+v", got)
	}
}

// farther adapts a plain function to Comparator.
type farther func(a, b int) bool

func (f farther) Farther(a, b int) bool { return f(a, b) }

// newCompareHeap returns an empty heap holding at most bound ids.
func newCompareHeap(bound int, cmp Comparator) *CompareHeap {
	h := &CompareHeap{}
	h.Reset(bound, cmp)
	return h
}

// distComparator builds a comparator from a plain distance table, standing
// in for DCE in tests.
func distComparator(dists []float64) farther {
	return func(a, b int) bool { return dists[a] > dists[b] }
}

func TestCompareHeapKeepsClosestK(t *testing.T) {
	r := rng.NewSeeded(7)
	const n, k = 200, 10
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = r.Float64()
	}
	h := newCompareHeap(k, distComparator(dists))
	for i := 0; i < n; i++ {
		h.Offer(i)
	}
	got := h.SortedInto(nil)
	if len(got) != k {
		t.Fatalf("kept %d ids, want %d", len(got), k)
	}
	// Compare against a true top-k.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
	for i := 0; i < k; i++ {
		if got[i] != idx[i] {
			t.Fatalf("rank %d: got id %d (dist %v), want %d (dist %v)",
				i, got[i], dists[got[i]], idx[i], dists[idx[i]])
		}
	}
}

func TestCompareHeapUnderfilled(t *testing.T) {
	dists := []float64{3, 1, 2}
	h := newCompareHeap(10, distComparator(dists))
	for i := range dists {
		if !h.Offer(i) {
			t.Fatalf("offer %d rejected while under bound", i)
		}
	}
	got := h.SortedInto(nil)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedInto = %v, want %v", got, want)
		}
	}
}

func TestCompareHeapRejectsFarther(t *testing.T) {
	dists := []float64{1, 2, 9}
	h := newCompareHeap(2, distComparator(dists))
	h.Offer(0)
	h.Offer(1)
	if h.Offer(2) {
		t.Fatal("heap admitted a candidate farther than its top")
	}
	if got := h.SortedInto(nil); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("heap holds %v, want [0 1]", got)
	}
}

func TestCompareHeapCountsComparisons(t *testing.T) {
	dists := []float64{4, 3, 2, 1}
	h := newCompareHeap(2, distComparator(dists))
	for i := range dists {
		h.Offer(i)
	}
	if h.Comparisons() == 0 {
		t.Fatal("comparator calls not counted")
	}
	// The bound on refine cost from the paper: O(k' log k) comparisons.
	maxCalls := len(dists) * int(2*math.Log2(2)+4)
	if h.Comparisons() > maxCalls {
		t.Fatalf("excessive comparisons: %d > %d", h.Comparisons(), maxCalls)
	}
}

func TestCompareHeapBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bound")
		}
	}()
	newCompareHeap(0, nil)
}

func TestCompareHeapPropertyRandom(t *testing.T) {
	f := func(seed uint64, count uint8, bound uint8) bool {
		r := rng.NewSeeded(seed)
		n := int(count)%150 + 1
		k := int(bound)%20 + 1
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = r.Float64()
		}
		h := newCompareHeap(k, distComparator(dists))
		for i := 0; i < n; i++ {
			h.Offer(i)
		}
		got := h.SortedInto(nil)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
		want := idx
		if n > k {
			want = idx[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareHeapResetReuse(t *testing.T) {
	asc := farther(func(a, b int) bool { return a > b })
	h := newCompareHeap(3, asc)
	for _, id := range []int{9, 1, 5, 7, 3} {
		h.Offer(id)
	}
	got := h.SortedInto(nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("first selection = %v", got)
	}
	if h.Comparisons() == 0 {
		t.Fatal("comparisons not counted")
	}
	// Reset must clear the counter and reuse storage for a fresh round.
	h.Reset(2, asc)
	if h.Comparisons() != 0 || h.Len() != 0 {
		t.Fatalf("after Reset: calls=%d len=%d", h.Comparisons(), h.Len())
	}
	for _, id := range []int{4, 2, 8} {
		h.Offer(id)
	}
	buf := make([]int, 0, 8)
	got = h.SortedInto(buf)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("second selection = %v", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("SortedInto did not reuse dst capacity")
	}
}
