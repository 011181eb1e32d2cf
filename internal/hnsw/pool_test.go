package hnsw

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// refEntry is an entry of the reference beam's heaps, keyed by distance
// and then by arrival: the order in which the walk offered it.
type refEntry struct {
	dist float64
	seq  int
	id   int32
}

func (a refEntry) before(b refEntry) bool {
	return a.dist < b.dist || a.dist == b.dist && a.seq < b.seq
}

// refHeap is a binary heap of refEntry: closest on top, or farthest when
// max is set.
type refHeap struct {
	e   []refEntry
	max bool
}

func (h *refHeap) Len() int { return len(h.e) }
func (h *refHeap) Less(i, j int) bool {
	if h.max {
		return h.e[j].before(h.e[i])
	}
	return h.e[i].before(h.e[j])
}
func (h *refHeap) Swap(i, j int) { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *refHeap) Push(x any)    { h.e = append(h.e, x.(refEntry)) }
func (h *refHeap) Pop() any {
	x := h.e[len(h.e)-1]
	h.e = h.e[:len(h.e)-1]
	return x
}

// refBeam is the beam the pool replaced, kept as the reference: a
// candidate min-heap beside a result max-heap bounded at ef. It pops the
// closest candidate, stops once that candidate is farther than the worst
// of a full result set, and admits a neighbor to both heaps iff the result
// set has room or the neighbor is strictly closer than its worst. Keys
// carry arrival order, so on equal distances the earlier arrival ranks
// first; on tie-free distances the keys are the distances alone. dist
// evaluates one hop's gathered ids; evals counts the ids it was given.
func refBeam(g *Graph, ep int, epDist float64, ef int, lay *csrLayer, dist func([]int32) []float64) (items []resultheap.Item, evals int) {
	seen := make([]bool, len(g.levels))
	cand, res := &refHeap{}, &refHeap{max: true}
	seq := 0
	first := refEntry{dist: epDist, seq: seq, id: int32(ep)}
	seen[ep] = true
	heap.Push(cand, first)
	heap.Push(res, first)
	for cand.Len() > 0 {
		c := heap.Pop(cand).(refEntry)
		if res.Len() >= ef && res.e[0].before(c) {
			break
		}
		var gather []int32
		for _, nb := range lay.neighbors(int(c.id)) {
			if !seen[nb] {
				seen[nb] = true
				gather = append(gather, nb)
			}
		}
		dists := dist(gather)
		evals += len(gather)
		for j, nb := range gather {
			seq++
			e := refEntry{dist: dists[j], seq: seq, id: nb}
			if res.Len() < ef || e.before(res.e[0]) {
				heap.Push(cand, e)
				heap.Push(res, e)
				if res.Len() > ef {
					heap.Pop(res)
				}
			}
		}
	}
	items = make([]resultheap.Item, res.Len())
	for i := len(items) - 1; i >= 0; i-- {
		e := heap.Pop(res).(refEntry)
		items[i] = resultheap.Item{ID: int(e.id), Dist: e.dist}
	}
	return items, evals
}

// countingScanner is a vec.BlockScanner that counts the distances it
// evaluates. With l1 unset it returns the blocked arena kernel's squared
// distances, bit for bit what a walk computes without a scanner; with l1
// set it ranks by L1 distance instead, as a compressed scanner ranks by
// something other than the stored vectors.
type countingScanner struct {
	data  *vec.Dataset
	q     []float64
	l1    bool
	evals *int
}

func (s countingScanner) DistBlock(dst []float64, ids []int32) {
	*s.evals += len(ids)
	if !s.l1 {
		copy(dst, s.data.SqDistBlock(nil, s.q, ids))
		return
	}
	for j, id := range ids {
		var d float64
		for i, x := range s.data.At(int(id)) {
			d += math.Abs(x - s.q[i])
		}
		dst[j] = d
	}
}

func (s countingScanner) Dist(id int32) float64 {
	d := make([]float64, 1)
	s.DistBlock(d, []int32{id})
	return d[0]
}

// sameAnswer fails unless the pool's walk returned the reference's items —
// ids and distance bits, in order — with the same number of distance
// evaluations.
func sameAnswer(t *testing.T, what string, got []resultheap.Cand, gotEvals int, want []resultheap.Item, wantEvals int) {
	t.Helper()
	if len(got) != len(want) || gotEvals != wantEvals {
		t.Fatalf("%s: pool kept %d after %d evaluations, reference %d after %d", what, len(got), gotEvals, len(want), wantEvals)
	}
	for i, c := range got {
		if int(c.ID) != want[i].ID || math.Float64bits(c.Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s pos %d: pool (%d, %v), reference %+v", what, i, c.ID, c.Dist, want[i])
		}
	}
}

// checkEveryLayer runs the pool beam and the reference on every layer of
// g, for queries that are stored vectors (as Build's walks are) and fresh
// ones, entering each layer where the descent from the top reaches it,
// at beam widths from 1 past the graph's size. It returns how many
// adjacent pooled answers tied.
func checkEveryLayer(t *testing.T, g *Graph, queries [][]float64) (ties int) {
	t.Helper()
	ctx := new(searchCtx)
	ctx.vis.Grow(g.IDs())
	for qi, q := range queries {
		ep, epDist := g.entry, vec.SqDist(q, g.data.At(g.entry))
		for l := g.maxLevel; l >= 0; l-- {
			lay := &g.layers[l]
			for _, ef := range []int{1, g.cfg.M, g.cfg.EfConstruction, g.IDs() + 5} {
				var gotEvals int
				want, wantEvals := refBeam(g, ep, epDist, ef, lay, func(ids []int32) []float64 {
					return g.data.SqDistBlock(nil, q, ids)
				})
				ctx.sc = countingScanner{data: g.data, q: q, evals: &gotEvals}
				ctx.next()
				got := g.beam(ctx, ep, epDist, ef, lay)
				ctx.sc = ctx.exact.Bind(g.data, q)
				sameAnswer(t, fmt.Sprintf("query %d layer %d ef %d", qi, l, ef), got, gotEvals, want, wantEvals)
				for i := 1; i < len(got); i++ {
					if got[i].Dist == got[i-1].Dist {
						ties++
					}
				}
			}
			ctx.next()
			ep, epDist = g.descend(ctx, ep, epDist, lay)
		}
	}
	return ties
}

// poolQueries is a mix of stored vectors and fresh ones.
func poolQueries(data [][]float64, seed uint64, dim int) [][]float64 {
	r := rng.NewSeeded(seed)
	var qs [][]float64
	for i := 0; i < 6; i++ {
		qs = append(qs, data[r.IntN(len(data))], rng.Gaussian(r, nil, dim))
	}
	return qs
}

// TestPoolMatchesHeapBeam is the pool's differential test: on tie-free
// data, over the layers Build links (slots at full link capacity) and the
// packed layers a search walks, the pool keeps exactly the reference
// beam's items after exactly its distance evaluations.
func TestPoolMatchesHeapBeam(t *testing.T) {
	const dim = 12
	data := clusteredData(51, 1500, dim, 8)
	g, _, err := buildLists(data, Config{Dim: dim, M: 5, EfConstruction: 48, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if g.maxLevel < 2 {
		t.Fatalf("graph has %d upper layers; the test wants at least two", g.maxLevel)
	}
	queries := poolQueries(data, 52, dim)
	if ties := checkEveryLayer(t, g, queries); ties != 0 {
		t.Fatalf("%d tied distances on data meant to be tie-free", ties)
	}
	g.pack()
	checkEveryLayer(t, g, queries)
}

// TestPoolTiesKeepArrivalOrder pins the pool's tie rule as its contract
// on a graph of duplicated vectors, where equal distances are the norm:
// equals rank in arrival order, and a full pool refuses a candidate equal
// to its worst entry. The reference keys its heaps by (distance, arrival),
// which is that rule.
func TestPoolTiesKeepArrivalOrder(t *testing.T) {
	const dim = 6
	base := clusteredData(53, 300, dim, 4)
	var data [][]float64
	for i := 0; i < 3; i++ {
		data = append(data, base...)
	}
	g, err := Build(data, Config{Dim: dim, M: 4, EfConstruction: 24, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if ties := checkEveryLayer(t, g, poolQueries(base, 54, dim)); ties == 0 {
		t.Fatal("no tied distances: the duplicate-vector case tested nothing")
	}
}

// TestSearchIntoDistMatchesHeapBeam holds SearchIntoDist to the reference
// with a scanner that ranks by something other than the stored vectors:
// the same answers, and the same number of scanner distances, descent
// included.
func TestSearchIntoDistMatchesHeapBeam(t *testing.T) {
	const dim, k = 10, 8
	data := clusteredData(55, 1200, dim, 6)
	g := buildGraph(t, data, Config{Dim: dim, M: 6, EfConstruction: 40, Seed: 55})
	for qi, q := range poolQueries(data, 56, dim) {
		for _, ef := range []int{k, 30, 200} {
			var gotEvals, wantEvals int
			got := g.SearchIntoDist(nil, q, k, ef, countingScanner{data: g.data, q: q, l1: true, evals: &gotEvals})

			sc := countingScanner{data: g.data, q: q, l1: true, evals: &wantEvals}
			ctx := &searchCtx{sc: sc}
			ctx.vis.Grow(g.IDs())
			ep, epDist := g.entry, sc.Dist(int32(g.entry))
			for l := g.maxLevel; l > 0; l-- {
				ep, epDist = g.descend(ctx, ep, epDist, &g.layers[l])
			}
			want, _ := refBeam(g, ep, epDist, ef, &g.layers[0], func(ids []int32) []float64 {
				d := make([]float64, len(ids))
				sc.DistBlock(d, ids)
				return d
			})
			want = want[:min(k, len(want))]
			if len(got) != len(want) || gotEvals != wantEvals {
				t.Fatalf("query %d ef %d: pool answered %d after %d evaluations, reference %d after %d", qi, ef, len(got), gotEvals, len(want), wantEvals)
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("query %d ef %d pos %d: pool %+v, reference %+v", qi, ef, i, got[i], want[i])
				}
			}
		}
	}
}
