package eval

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ppanns/internal/frame"
	"ppanns/internal/hnsw"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// pacmann is the PACM-ANN baseline [45]: the search runs on the *user*,
// which walks a server-hosted proximity graph by privately fetching one
// block per visited node — vector plus fixed-degree adjacency — from two
// non-colluding PIR servers, over multiple interactive rounds. Every fetch
// costs each server a linear scan of the whole block database, which is
// what makes the scheme orders of magnitude slower than single-server
// search despite its strong query privacy.
type pacmann struct {
	dim    int
	n      int
	degree int
	entry  int

	serverA, serverB *pirServer
	client           *pirClient

	// Beam is the user-side beam width (recall knob).
	Beam int
	// MaxRounds bounds the interactive rounds (latency/recall knob).
	MaxRounds int
}

// pacmannConfig parameterizes construction.
type pacmannConfig struct {
	// Graph holds HNSW build parameters for the server-side proximity
	// graph.
	Graph hnsw.Config
	// Degree is the fixed out-degree stored per block; adjacency is
	// truncated or padded to it. Defaults to Graph.M (or 16).
	Degree int
	// Beam and MaxRounds tune the user-side walk (defaults 8 and 12).
	Beam      int
	MaxRounds int
	Seed      uint64
}

// newPACMANN builds the proximity graph, serializes per-node blocks and
// loads them into the two PIR servers.
func newPACMANN(data [][]float64, cfg pacmannConfig) (*pacmann, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("pacmann: empty database")
	}
	if cfg.Graph.Seed == 0 {
		cfg.Graph.Seed = cfg.Seed ^ 0x9aC
	}
	g, err := hnsw.Build(vec.DatasetFromSlices(data), nil, cfg.Graph)
	if err != nil {
		return nil, err
	}
	degree := cfg.Degree
	if degree <= 0 {
		degree = cfg.Graph.M
	}
	if degree <= 0 {
		degree = 16
	}

	// Block layout: vector (8·dim bytes) ‖ degree × int32 neighbor ids
	// (-1 padding). Layer-0 adjacency of the graph.
	dim := len(data[0])
	blocks := make([][]byte, len(data))
	for id := range data {
		block := frame.AppendFloatRun(make([]byte, 0, 8*dim+4*degree), g.Vector(id))
		nbs := g.Neighbors(id, 0)
		for j := 0; j < degree; j++ {
			v := int32(-1)
			if j < len(nbs) {
				v = int32(nbs[j])
			}
			block = binary.LittleEndian.AppendUint32(block, uint32(v))
		}
		blocks[id] = block
	}
	a, err := newPIRServer(blocks)
	if err != nil {
		return nil, err
	}
	b, err := newPIRServer(blocks)
	if err != nil {
		return nil, err
	}
	client, err := newPIRClient(rng.NewSeeded(cfg.Seed^0x77), len(blocks))
	if err != nil {
		return nil, err
	}
	beam := cfg.Beam
	if beam <= 0 {
		beam = 8
	}
	rounds := cfg.MaxRounds
	if rounds <= 0 {
		rounds = 12
	}
	return &pacmann{
		dim: dim, n: len(data), degree: degree,
		entry:   g.EntryPoint(),
		serverA: a, serverB: b, client: client,
		Beam: beam, MaxRounds: rounds,
	}, nil
}

// name implements system.
func (p *pacmann) name() string { return "PACM-ANN" }

// search implements system: a user-driven beam walk with one PIR fetch per
// visited node per round.
func (p *pacmann) search(q []float64, k int) ([]int, costSplit, error) {
	if len(q) != p.dim {
		return nil, costSplit{}, fmt.Errorf("pacmann: query dim %d, want %d", len(q), p.dim)
	}
	var c costSplit

	type known struct {
		vec      []float64
		nbs      []int
		expanded bool
		dist     float64
	}
	decoded := map[int]*known{}

	// fetchOne runs the full two-server protocol for one node block,
	// attributing client work to UserTime and server scans to ServerTime.
	fetchOne := func(id int) (*known, error) {
		startU := time.Now()
		selA, selB, err := p.client.query(id)
		if err != nil {
			return nil, err
		}
		c.UserTime += time.Since(startU)
		c.UploadBytes += int64(len(selA) + len(selB))

		startS := time.Now()
		ansA, err := p.serverA.answer(selA)
		if err != nil {
			return nil, err
		}
		ansB, err := p.serverB.answer(selB)
		if err != nil {
			return nil, err
		}
		c.ServerTime += time.Since(startS)
		c.DownloadBytes += int64(len(ansA) + len(ansB))

		startU = time.Now()
		block, err := pirCombine(ansA, ansB)
		if err != nil {
			return nil, err
		}
		v := frame.NewReader(block).FloatRun(p.dim)
		nbs := make([]int, 0, p.degree)
		for j := 0; j < p.degree; j++ {
			nb := int(int32(binary.LittleEndian.Uint32(block[8*p.dim+4*j:])))
			if nb >= 0 {
				nbs = append(nbs, nb)
			}
		}
		dist := vec.SqDist(v, q)
		c.UserTime += time.Since(startU)
		return &known{vec: v, nbs: nbs, dist: dist}, nil
	}

	kn, err := fetchOne(p.entry)
	if err != nil {
		return nil, c, err
	}
	decoded[p.entry] = kn
	c.Rounds = 1

	for round := 0; round < p.MaxRounds; round++ {
		// User picks the `beam` closest unexpanded nodes.
		type cand struct {
			id   int
			dist float64
		}
		var frontier []cand
		for id, kn := range decoded {
			if !kn.expanded {
				frontier = append(frontier, cand{id, kn.dist})
			}
		}
		if len(frontier) == 0 {
			break
		}
		// Partial selection of the beam best.
		for i := 0; i < len(frontier) && i < p.Beam; i++ {
			best := i
			for j := i + 1; j < len(frontier); j++ {
				if frontier[j].dist < frontier[best].dist {
					best = j
				}
			}
			frontier[i], frontier[best] = frontier[best], frontier[i]
		}
		if len(frontier) > p.Beam {
			frontier = frontier[:p.Beam]
		}
		// Collect unfetched neighbors of the beam.
		var toFetch []int
		for _, f := range frontier {
			decoded[f.id].expanded = true
			for _, nb := range decoded[f.id].nbs {
				if _, ok := decoded[nb]; !ok {
					decoded[nb] = nil // reserve
					toFetch = append(toFetch, nb)
				}
			}
		}
		if len(toFetch) == 0 {
			break
		}
		c.Rounds++
		for _, id := range toFetch {
			kn, err := fetchOne(id)
			if err != nil {
				return nil, c, err
			}
			decoded[id] = kn
		}
	}

	// Final user-side top-k among everything decoded.
	start := time.Now()
	vecs := make(map[int][]float64, len(decoded))
	ids := make([]int, 0, len(decoded))
	for id, kn := range decoded {
		if kn == nil {
			continue
		}
		vecs[id] = kn.vec
		ids = append(ids, id)
	}
	res := topKByDistance(vecs, ids, q, k)
	c.UserTime += time.Since(start)
	c.Candidates = len(ids)
	return res, c, nil
}

func TestPACMANN(t *testing.T) {
	w := newWorld(t, 1000, 10, 10)
	sys, err := newPACMANN(w.data.Train, pacmannConfig{
		Graph:     hnsw.Config{M: 12, EfConstruction: 100},
		Beam:      8,
		MaxRounds: 10,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.6 {
		t.Fatalf("PACM-ANN recall = %.3f, want ≥ 0.6", recall)
	}
	// The defining cost shape: multi-round interaction and server scans
	// proportional to fetches × database size.
	if costs.Rounds <= len(w.queries) {
		t.Fatalf("PACM-ANN not multi-round: %d rounds over %d queries", costs.Rounds, len(w.queries))
	}
	if costs.ServerTime == 0 || costs.UploadBytes == 0 {
		t.Fatalf("costs not attributed: %+v", costs)
	}
}

func TestPACMANNValidation(t *testing.T) {
	if _, err := newPACMANN(nil, pacmannConfig{}); err == nil {
		t.Fatal("expected error for empty database")
	}
	w := newWorld(t, 100, 1, 1)
	sys, err := newPACMANN(w.data.Train, pacmannConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.search(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}
