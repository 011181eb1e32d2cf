package hnsw

import (
	"fmt"
	"slices"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// The graph's section of a database file, for n ids of dimension dim
// whose liveness the file's presence bytes state (none of the three is
// stored here):
//
//	M, EfConstruction: int64 | Seed: u64 | entry, maxLevel: int64
//	vectors: n rows of dim f64 (a dead slot's row is zero)
//	per live id, in id order: level i32, then for each layer 0..level
//	  the neighbor count i32 and the neighbor ids i32
//
// A dead slot has level 0 and no links, so it carries no node record.

// Save writes the graph's section.
func (g *Graph) Save(e *frame.Encoder) {
	e.Int(g.cfg.M)
	e.Int(g.cfg.EfConstruction)
	e.U64(g.cfg.Seed)
	e.Int(g.entry)
	e.Int(g.maxLevel)
	g.data.Save(e)
	for id, level := range g.levels {
		if g.dead[id] {
			continue
		}
		e.U32(uint32(level))
		for l := 0; l <= int(level); l++ {
			lst := g.layers[l].neighbors(id)
			e.U32(uint32(len(lst)))
			e.Int32Run(lst)
		}
	}
}

// Load reads a section Save wrote for len(live) ids of dimension dim,
// live[id] false at every dead slot, and returns the graph and the rows
// the section carries, which the graph keeps as its data. The bytes are
// untrusted: the header is checked before it sizes anything, the
// adjacency is packed into the CSR layers as its bytes arrive, no list may
// exceed its layer's link cap or name a dead slot, and the entry point
// must be a live node of the top level.
func Load(d *frame.Decoder, dim int, live []bool) (*Graph, *vec.Dataset, error) {
	n := len(live)
	cfg := Config{M: d.Int(), EfConstruction: d.Int(), Seed: d.U64()}
	entry, maxLevel := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("hnsw: reading header: %w", err)
	}
	size := 0
	for _, ok := range live {
		if ok {
			size++
		}
	}
	// Build draws no level above 53 (U ≥ 2⁻⁵³, M ≥ 2), so a deeper header
	// is a lie.
	if dim < 1 || cfg.M < 2 || cfg.EfConstruction < 1 || entry < -1 || entry >= n || maxLevel < 0 || maxLevel > 64 || (entry < 0) != (size == 0) {
		return nil, nil, fmt.Errorf("hnsw: implausible header dim=%d M=%d efConstruction=%d entry=%d maxLevel=%d for %d live of %d ids",
			dim, cfg.M, cfg.EfConstruction, entry, maxLevel, size, n)
	}
	g := newGraph(cfg, vec.LoadDataset(d, dim, n))
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("hnsw: reading vectors: %w", err)
	}
	g.entry, g.maxLevel, g.size = entry, maxLevel, size

	g.levels = make([]int32, n)
	g.dead = make([]bool, n)
	g.layers = make([]csrLayer, maxLevel+1)
	for l := range g.layers {
		g.layers[l] = packed(make([]int32, n+1), nil)
	}
	for id := 0; id < n && d.Err() == nil; id++ {
		g.dead[id] = !live[id]
		level := 0
		if live[id] {
			level = int(int32(d.U32()))
			if level < 0 || level > maxLevel {
				d.Fail(fmt.Errorf("hnsw: node %d has level %d beyond max %d", id, level, maxLevel))
			}
		}
		g.levels[id] = int32(level)
		for l := range g.layers {
			lay := &g.layers[l]
			if l <= level && live[id] {
				cnt := int(int32(d.U32()))
				if cnt < 0 || cnt > g.maxLinks(l) {
					d.Fail(fmt.Errorf("hnsw: node %d layer %d has %d neighbors, at most %d", id, l, cnt, g.maxLinks(l)))
					break
				}
				at := len(lay.nbrs)
				lay.nbrs = slices.Grow(lay.nbrs, cnt)[:at+cnt]
				d.Int32Run(lay.nbrs[at:])
				for _, nb := range lay.nbrs[at:] {
					if nb < 0 || int(nb) >= n || !live[nb] {
						d.Fail(fmt.Errorf("hnsw: node %d links id %d, which is out of range or dead", id, nb))
					}
				}
			}
			lay.offs[id+1] = int32(len(lay.nbrs))
		}
	}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("hnsw: reading adjacency: %w", err)
	}
	if entry >= 0 && (!live[entry] || g.levels[entry] != int32(maxLevel)) || entry < 0 && maxLevel != 0 {
		return nil, nil, fmt.Errorf("hnsw: entry point %d is not a live node of the max level %d", entry, maxLevel)
	}
	return g, g.data, nil
}
