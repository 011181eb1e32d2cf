package nsg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/resultheap"
)

// nsgGolden is the digest of a seeded build's adjacency and its answers,
// recorded while the beam still ran a candidate min-heap beside a bounded
// result max-heap. The sorted candidate pool that replaced the pair must
// build and answer byte for byte as they did.
const nsgGolden = "517c2ecbb3159247"

// graphDigest hashes the navigating node, the CSR adjacency, and every
// query's SearchInto answer at each beam width: per list its length, then
// every id and distance bit pattern in order.
func graphDigest(g *Graph, queries [][]float64, k int, efs []int) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.nav))
	for _, o := range g.offs {
		put(uint64(o))
	}
	for _, nb := range g.nbrs {
		put(uint64(nb))
	}
	var dst []resultheap.Item
	for _, q := range queries {
		for _, ef := range efs {
			dst = g.SearchInto(dst, q, k, ef)
			put(uint64(len(dst)))
			for _, it := range dst {
				put(uint64(it.ID))
				put(math.Float64bits(it.Dist))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestGolden pins what a seeded build links and answers.
func TestGolden(t *testing.T) {
	d := dataset.DeepLike(700, 16, 43)
	g, err := Build(d.Train, Config{R: 24, L: 64, KNN: 32, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if got := graphDigest(g, d.Queries, 10, []int{10, 40, 200}); got != nsgGolden {
		t.Fatalf("graph digest %s, want %s", got, nsgGolden)
	}
}

// TestUnboundedEf: the beam width is a caller's number. On a fresh graph —
// no pooled search context yet — an absurd ef must cost memory bounded by
// the graph and find what ef = n finds.
func TestUnboundedEf(t *testing.T) {
	g, d := buildGraph(t, 400)
	n := g.Len()
	for _, q := range d.Queries[:4] {
		got := g.SearchInto(nil, q, 10, math.MaxInt)
		if want := g.SearchInto(nil, q, 10, n); !slices.Equal(got, want) {
			t.Fatalf("ef=MaxInt found %v, ef=n found %v", got, want)
		}
	}
}
