package eval

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
)

// priann is the PRI-ANN baseline [27]: each LSH table's buckets are laid
// out as fixed-capacity PIR blocks on two non-colluding servers. A query
// hashes locally, privately fetches its bucket from every table in a single
// round, then refines the decoded candidates client-side. Query privacy is
// strong and the protocol is single-round, but every bucket fetch costs
// both servers a linear scan, and fixed-capacity buckets cap the achievable
// recall.
type priann struct {
	dim       int
	bucketCap int
	tables    []priTable
	index     *lshIndex
}

type priTable struct {
	serverA, serverB *pirServer
	blockOf          map[uint64]int // bucket key → PIR block index
	client           *pirClient
}

// priannConfig parameterizes construction.
type priannConfig struct {
	LSH lshConfig
	// BucketCap is the fixed number of (id, vector) entries per PIR block;
	// overfull buckets are truncated (recall knob). Defaults to 32.
	BucketCap int
	Seed      uint64
}

// newPRIANN hashes the database into per-table buckets and loads each
// table into a PIR server pair.
func newPRIANN(data [][]float64, cfg priannConfig) (*priann, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("priann: empty database")
	}
	cfg.LSH.Dim = len(data[0])
	index, err := newLSH(cfg.LSH)
	if err != nil {
		return nil, err
	}
	for id, v := range data {
		index.insert(id, v)
	}
	bucketCap := cfg.BucketCap
	if bucketCap <= 0 {
		bucketCap = 32
	}
	dim := len(data[0])
	entryBytes := 4 + 8*dim

	p := &priann{dim: dim, bucketCap: bucketCap}
	p.index = index
	for t := 0; t < len(index.tables); t++ {
		buckets := index.bucketMap(t)
		blocks := make([][]byte, 0, len(buckets)+1)
		blockOf := make(map[uint64]int, len(buckets))
		// Block 0 is a reserved empty block for absent buckets, so a query
		// whose bucket does not exist still issues an indistinguishable
		// fetch. The buckets follow in key order, so the seed fixes the
		// layout.
		blocks = append(blocks, make([]byte, bucketCap*entryBytes))
		for _, key := range slices.Sorted(maps.Keys(buckets)) {
			ids := buckets[key]
			block := make([]byte, 0, bucketCap*entryBytes)
			for _, id := range ids[:min(len(ids), bucketCap)] {
				block = binary.LittleEndian.AppendUint32(block, uint32(id)+1) // +1: 0 means empty
				block = frame.AppendFloatRun(block, data[id])
			}
			block = block[:cap(block)] // the unused entries read as empty
			blockOf[key] = len(blocks)
			blocks = append(blocks, block)
		}
		a, err := newPIRServer(blocks)
		if err != nil {
			return nil, err
		}
		b, err := newPIRServer(blocks)
		if err != nil {
			return nil, err
		}
		client, err := newPIRClient(rng.NewSeeded(cfg.Seed^0x9f1^uint64(t)*0x9e3779b9), len(blocks))
		if err != nil {
			return nil, err
		}
		p.tables = append(p.tables, priTable{serverA: a, serverB: b, blockOf: blockOf, client: client})
	}
	return p, nil
}

// name implements system.
func (p *priann) name() string { return "PRI-ANN" }

// search implements system: one PIR bucket fetch per table (single round),
// then client-side exact refine.
func (p *priann) search(q []float64, k int) ([]int, costSplit, error) {
	if len(q) != p.dim {
		return nil, costSplit{}, fmt.Errorf("priann: query dim %d, want %d", len(q), p.dim)
	}
	var c costSplit
	c.Rounds = 1
	entryBytes := 4 + 8*p.dim

	// User: hash the query locally (LSH parameters are public metadata in
	// PRI-ANN; the servers never see which bucket is fetched).
	start := time.Now()
	keys := p.index.bucketOf(q)
	c.UserTime += time.Since(start)

	decoded := make(map[int][]float64)
	var cands []int
	for t := range p.tables {
		tb := &p.tables[t]
		blockIdx, ok := tb.blockOf[keys[t]]
		if !ok {
			blockIdx = 0 // reserved empty block: fetch anyway for privacy
		}

		startU := time.Now()
		selA, selB, err := tb.client.query(blockIdx)
		if err != nil {
			return nil, c, err
		}
		c.UserTime += time.Since(startU)
		c.UploadBytes += int64(len(selA) + len(selB))

		startS := time.Now()
		ansA, err := tb.serverA.answer(selA)
		if err != nil {
			return nil, c, err
		}
		ansB, err := tb.serverB.answer(selB)
		if err != nil {
			return nil, c, err
		}
		c.ServerTime += time.Since(startS)
		c.DownloadBytes += int64(len(ansA) + len(ansB))

		startU = time.Now()
		block, err := pirCombine(ansA, ansB)
		if err != nil {
			return nil, c, err
		}
		for i := 0; i < p.bucketCap; i++ {
			off := i * entryBytes
			raw := binary.LittleEndian.Uint32(block[off:])
			if raw == 0 {
				continue
			}
			id := int(raw) - 1
			if _, ok := decoded[id]; !ok {
				decoded[id] = frame.NewReader(block[off+4 : off+entryBytes]).FloatRun(p.dim)
				cands = append(cands, id)
			}
		}
		c.UserTime += time.Since(startU)
	}
	c.Candidates = len(cands)

	start = time.Now()
	ids := topKByDistance(decoded, cands, q, k)
	c.UserTime += time.Since(start)
	return ids, c, nil
}

func TestPRIANN(t *testing.T) {
	w := newWorld(t, 1500, 10, 10)
	sys, err := newPRIANN(w.data.Train, priannConfig{
		LSH:       lshConfig{Tables: 8, Hashes: 6, W: 1.2, Seed: 5},
		BucketCap: 48,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.5 {
		t.Fatalf("PRI-ANN recall = %.3f, want ≥ 0.5", recall)
	}
	// Single-round by construction.
	if costs.Rounds != len(w.queries) {
		t.Fatalf("PRI-ANN rounds = %d, want %d (single round per query)", costs.Rounds, len(w.queries))
	}
	if costs.ServerTime == 0 || costs.UserTime == 0 {
		t.Fatalf("costs not attributed: %+v", costs)
	}
}

// TestPRIANNSeedFixesBlocks: two builds with one seed lay out identical
// PIR blocks, each bucket at the same block index, in every table.
func TestPRIANNSeedFixesBlocks(t *testing.T) {
	w := newWorld(t, 400, 1, 1)
	cfg := priannConfig{LSH: lshConfig{Tables: 4, Hashes: 6, W: 1.2, Seed: 8}, BucketCap: 16, Seed: 8}
	a, err := newPRIANN(w.data.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPRIANN(w.data.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.tables {
		ta, tb := &a.tables[i], &b.tables[i]
		if !maps.Equal(ta.blockOf, tb.blockOf) {
			t.Fatalf("table %d: the buckets land in other blocks on a second build", i)
		}
		if !slices.EqualFunc(ta.serverA.blocks, tb.serverA.blocks, slices.Equal) {
			t.Fatalf("table %d: a second build lays out other blocks", i)
		}
	}
}

func TestPRIANNValidation(t *testing.T) {
	if _, err := newPRIANN(nil, priannConfig{}); err == nil {
		t.Fatal("expected error for empty database")
	}
	w := newWorld(t, 100, 1, 1)
	sys, err := newPRIANN(w.data.Train, priannConfig{LSH: lshConfig{Seed: 6}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.search(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}
