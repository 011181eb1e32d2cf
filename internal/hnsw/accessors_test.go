package hnsw

import (
	"testing"

	"ppanns/internal/vec"
)

func TestVectorAccessor(t *testing.T) {
	data := clusteredData(31, 100, 6, 3)
	g := buildGraph(t, data, Config{Seed: 31})
	for i := 0; i < 10; i++ {
		if !vec.ApproxEqual(g.Vector(i), data[i], 0) {
			t.Fatalf("Vector(%d) does not match inserted data", i)
		}
	}
}

func TestNeighborsAccessor(t *testing.T) {
	data := clusteredData(32, 300, 6, 3)
	g := buildGraph(t, data, Config{M: 8, Seed: 32})
	// Every node must have layer-0 neighbors, all in range, none self.
	for i := 0; i < 300; i++ {
		nbs := g.Neighbors(i, 0)
		if len(nbs) == 0 {
			t.Fatalf("node %d has no layer-0 neighbors", i)
		}
		if len(nbs) > 16 {
			t.Fatalf("node %d exceeds the layer-0 cap 2·M: %d", i, len(nbs))
		}
		for _, nb := range nbs {
			if nb < 0 || nb >= 300 {
				t.Fatalf("node %d references out-of-range %d", i, nb)
			}
			if nb == i {
				t.Fatalf("node %d references itself", i)
			}
		}
	}
	// A layer above any node's level yields nil.
	if nbs := g.Neighbors(0, 50); nbs != nil {
		t.Fatalf("layer-50 neighbors = %v, want nil", nbs)
	}
}

func TestEntryPointAccessor(t *testing.T) {
	g, err := Build(vec.ZeroDataset(2, 0), nil, Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if g.EntryPoint() != -1 {
		t.Fatal("empty graph entry point should be -1")
	}
	g = buildGraph(t, [][]float64{{1, 2}}, Config{Seed: 33})
	if g.EntryPoint() != 0 {
		t.Fatal("a single node must be the entry point")
	}
}

func TestLevelZeroProbability(t *testing.T) {
	// With M=16, ~93.75% of nodes are level 0; Stats.MaxLevel for a
	// thousand nodes should be small but positive.
	data := clusteredData(35, 2000, 4, 4)
	g := buildGraph(t, data, Config{M: 16, Seed: 35})
	st := g.Stats()
	if st.MaxLevel < 1 || st.MaxLevel > 8 {
		t.Fatalf("MaxLevel = %d for 2000 nodes at M=16", st.MaxLevel)
	}
}
