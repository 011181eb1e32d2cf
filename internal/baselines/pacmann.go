package baselines

import (
	"encoding/binary"
	"fmt"
	"time"

	"ppanns/internal/hnsw"
	"ppanns/internal/pir"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// PACMANN is the PACM-ANN baseline [45]: the search runs on the *user*,
// which walks a server-hosted proximity graph by privately fetching one
// block per visited node — vector plus fixed-degree adjacency — from two
// non-colluding PIR servers, over multiple interactive rounds. Every fetch
// costs each server a linear scan of the whole block database, which is
// what makes the scheme orders of magnitude slower than single-server
// search despite its strong query privacy.
type PACMANN struct {
	dim    int
	n      int
	degree int
	entry  int

	serverA, serverB *pir.Server
	client           *pir.Client

	// Beam is the user-side beam width (recall knob).
	Beam int
	// MaxRounds bounds the interactive rounds (latency/recall knob).
	MaxRounds int
}

// PACMANNConfig parameterizes construction.
type PACMANNConfig struct {
	// Graph holds HNSW build parameters for the server-side proximity
	// graph (Dim is overwritten from the data).
	Graph hnsw.Config
	// Degree is the fixed out-degree stored per block; adjacency is
	// truncated or padded to it. Defaults to Graph.M (or 16).
	Degree int
	// Beam and MaxRounds tune the user-side walk (defaults 8 and 12).
	Beam      int
	MaxRounds int
	Seed      uint64
}

// NewPACMANN builds the proximity graph, serializes per-node blocks and
// loads them into the two PIR servers.
func NewPACMANN(data [][]float64, cfg PACMANNConfig) (*PACMANN, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("pacmann: empty database")
	}
	cfg.Graph.Dim = len(data[0])
	if cfg.Graph.Seed == 0 {
		cfg.Graph.Seed = cfg.Seed ^ 0x9aC
	}
	g, err := hnsw.Build(data, cfg.Graph)
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
		block := make([]byte, 8*dim+4*degree)
		copy(block, encodeVector(g.Vector(id)))
		nbs := g.Neighbors(id, 0)
		for j := 0; j < degree; j++ {
			v := int32(-1)
			if j < len(nbs) {
				v = int32(nbs[j])
			}
			binary.LittleEndian.PutUint32(block[8*dim+4*j:], uint32(v))
		}
		blocks[id] = block
	}
	a, err := pir.NewServer(blocks)
	if err != nil {
		return nil, err
	}
	b, err := pir.NewServer(blocks)
	if err != nil {
		return nil, err
	}
	client, err := pir.NewClient(rng.NewSeeded(cfg.Seed^0x77), len(blocks))
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
	return &PACMANN{
		dim: dim, n: len(data), degree: degree,
		entry:   g.EntryPoint(),
		serverA: a, serverB: b, client: client,
		Beam: beam, MaxRounds: rounds,
	}, nil
}

// Name implements System.
func (p *PACMANN) Name() string { return "PACM-ANN" }

// Search implements System: a user-driven beam walk with one PIR fetch per
// visited node per round.
func (p *PACMANN) Search(q []float64, k int) ([]int, Costs, error) {
	if len(q) != p.dim {
		return nil, Costs{}, fmt.Errorf("pacmann: query dim %d, want %d", len(q), p.dim)
	}
	var c Costs

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
		selA, selB, err := p.client.Query(id)
		if err != nil {
			return nil, err
		}
		c.UserTime += time.Since(startU)
		c.UploadBytes += int64(len(selA) + len(selB))

		startS := time.Now()
		ansA, err := p.serverA.Answer(selA)
		if err != nil {
			return nil, err
		}
		ansB, err := p.serverB.Answer(selB)
		if err != nil {
			return nil, err
		}
		c.ServerTime += time.Since(startS)
		c.DownloadBytes += int64(len(ansA) + len(ansB))

		startU = time.Now()
		block, err := pir.Combine(ansA, ansB)
		if err != nil {
			return nil, err
		}
		v := decodeVector(block, p.dim)
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
