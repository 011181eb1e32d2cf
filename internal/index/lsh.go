package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"ppanns/internal/lsh"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func init() {
	Register(Backend{Name: "lsh", Build: buildLSH, Load: loadLSH})
}

// Adapter defaults: fewer, shorter hashes than the package's baseline
// defaults, because the filter phase wants recall (the DCE refine restores
// precision) and multi-probe makes short hashes cheap to widen.
const (
	lshDefaultTables = 12
	lshDefaultHashes = 8
)

// lshMaxTables and lshMaxHashes bound the hash layout a build accepts, so a
// payload header cannot size the projections (Tables·Hashes·Dim floats):
// the loader refuses any layout no build would have written.
const (
	lshMaxTables = 256
	lshMaxHashes = 64
)

// lshIndex adapts lsh.Index to SecureIndex. The hash tables only store
// ids, so the adapter keeps the vectors itself to rank the candidate union
// by distance — the same filter-then-rank shape the RS-SANN and PRI-ANN
// baselines use, here serving the generic filter phase. The ranking scan is
// blocked: the candidate union is one flat id list, evaluated with one
// blocked distance call over the vector arena per query. Dead slots are
// never hashed, so no candidate is one.
type lshIndex struct {
	cfg lsh.Config
	// probes fixes the multi-probe budget per table; 0 derives it from
	// the search's ef budget.
	probes int

	ix      *lsh.Index
	data    *vec.Dataset
	deleted []bool
	live    int

	ctxPool sync.Pool
}

// lshCtx is the pooled per-search scratch of the adapter's ranking scan.
type lshCtx struct {
	cands []int32
	dists []float64
	res   *resultheap.MaxDistHeap
	items []resultheap.Item
}

// calibrateW estimates a quantization width from the data scale: W is set
// to half the mean pairwise distance over a deterministic sample, which
// puts near neighbors well inside one quantization cell while keeping far
// points apart. E2LSH's fixed default (4) assumes unit-scale data and
// collapses on SAP ciphertexts, whose coordinates are scaled by S≈1024.
// Pairs that draw a dead slot are skipped.
func calibrateW(vectors [][]float64, seed uint64) float64 {
	if len(vectors) < 2 {
		return 4
	}
	r := rng.NewSeeded(seed ^ 0x3a7)
	const pairs = 512
	var sum float64
	var cnt int
	for i := 0; i < pairs; i++ {
		a := r.IntN(len(vectors))
		b := r.IntN(len(vectors))
		if a == b || vectors[a] == nil || vectors[b] == nil {
			continue
		}
		sum += vec.Dist(vectors[a], vectors[b])
		cnt++
	}
	if cnt == 0 || sum == 0 {
		return 4
	}
	return sum / float64(cnt) / 2
}

func buildLSH(vectors [][]float64, opts Options) (SecureIndex, error) {
	cfg := lsh.Config{
		Dim:    opts.Dim,
		Tables: opts.Tables,
		Hashes: opts.Hashes,
		W:      opts.W,
		Seed:   opts.Seed,
	}
	if cfg.Tables <= 0 {
		cfg.Tables = lshDefaultTables
	}
	if cfg.Hashes <= 0 {
		cfg.Hashes = lshDefaultHashes
	}
	if cfg.W <= 0 {
		cfg.W = calibrateW(vectors, opts.Seed)
	}
	if cfg.Tables > lshMaxTables || cfg.Hashes > lshMaxHashes {
		return nil, fmt.Errorf("index: lsh layout of %d tables × %d hashes exceeds %d × %d", cfg.Tables, cfg.Hashes, lshMaxTables, lshMaxHashes)
	}
	return buildLSHOver(cfg, opts.Probes, vectors)
}

// buildLSHOver indexes vectors as ids 0..len-1, nil rows dead: the
// populate step Build and Rebuild share.
func buildLSHOver(cfg lsh.Config, probes int, vectors [][]float64) (SecureIndex, error) {
	data := vec.NewDataset(cfg.Dim, len(vectors))
	deleted := make([]bool, len(vectors))
	for i, v := range vectors {
		if v == nil {
			data.AppendZero()
			deleted[i] = true
		} else {
			data.Append(v)
		}
	}
	return newLSHIndex(cfg, probes, data, deleted)
}

// newLSHIndex hashes every live row of data into fresh tables. The tables
// only store ids, so a save need not carry them: the seed reproduces the
// projections.
func newLSHIndex(cfg lsh.Config, probes int, data *vec.Dataset, deleted []bool) (*lshIndex, error) {
	ix, err := lsh.New(cfg)
	if err != nil {
		return nil, err
	}
	a := &lshIndex{cfg: cfg, probes: probes, ix: ix, data: data, deleted: deleted}
	for id, del := range deleted {
		if !del {
			ix.Insert(id, data.At(id))
			a.live++
		}
	}
	return a, nil
}

// probesFor maps the advisory ef budget onto a per-table probe count: one
// extra bucket per 8 beam slots, clamped to [Hashes, 2·Hashes] (the probe
// generator emits at most 2·Hashes single-coordinate perturbations).
func (a *lshIndex) probesFor(ef int) int {
	if a.probes > 0 {
		return a.probes
	}
	p := ef / 8
	if p < a.cfg.Hashes {
		p = a.cfg.Hashes
	}
	if p > 2*a.cfg.Hashes {
		p = 2 * a.cfg.Hashes
	}
	return p
}

func (a *lshIndex) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	return a.searchInto(dst, q, k, ef, nil)
}

func (a *lshIndex) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	return a.searchInto(dst, q, k, ef, sc)
}

// searchInto collects the multi-probe candidate union (hashing q exactly)
// and ranks it — through sc when one is bound (the compressed filter path),
// else with the blocked distance kernel over the vector arena.
func (a *lshIndex) searchInto(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	ctx, _ := a.ctxPool.Get().(*lshCtx)
	if ctx == nil {
		ctx = &lshCtx{res: resultheap.NewMaxDistHeap(k + 1)}
	}
	defer a.ctxPool.Put(ctx)
	ctx.cands = a.ix.CandidatesInto(ctx.cands[:0], q, a.probesFor(ef), 0)
	if sc != nil {
		if cap(ctx.dists) < len(ctx.cands) {
			ctx.dists = make([]float64, len(ctx.cands))
		} else {
			ctx.dists = ctx.dists[:len(ctx.cands)]
		}
		sc.DistBlock(ctx.dists, ctx.cands)
	} else {
		ctx.dists = a.data.SqDistBlock(ctx.dists, q, ctx.cands)
	}
	res := ctx.res
	res.Reset()
	for j, id := range ctx.cands {
		res.PushBounded(int(id), ctx.dists[j], k)
	}
	ctx.items = res.SortedInto(ctx.items)
	return append(dst[:0], ctx.items...)
}

func (a *lshIndex) Len() int { return a.live }

func (a *lshIndex) Dim() int { return a.cfg.Dim }

func (a *lshIndex) Vector(id int) ([]float64, bool) {
	if id < 0 || id >= len(a.deleted) || a.deleted[id] {
		return nil, false
	}
	return a.data.At(id), true
}

// Rebuild constructs a fresh table set over vectors with the receiver's
// configuration. The calibrated quantization width W is retained rather
// than re-estimated, so the rebuilt tables hash exactly like the original's.
func (a *lshIndex) Rebuild(vectors [][]float64) (SecureIndex, error) {
	return buildLSHOver(a.cfg, a.probes, vectors)
}

const lshPayloadMagic = "IDXLSH01"

// Save persists the configuration, vectors and tombstones (one byte per
// id, set for a dead slot). The hash tables themselves are not written:
// Load rebuilds an equivalent index by re-inserting the live vectors under
// the same seed's projections.
func (a *lshIndex) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(lshPayloadMagic); err != nil {
		return err
	}
	n := len(a.deleted)
	head := []int64{
		int64(a.cfg.Dim), int64(a.cfg.Tables), int64(a.cfg.Hashes),
		int64(a.cfg.Seed), int64(a.probes), int64(n), int64(a.live),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(a.cfg.W)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, a.data.Raw()); err != nil {
		return err
	}
	for _, d := range a.deleted {
		b := byte(0)
		if d {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func loadLSH(r io.Reader, dim, n int) (SecureIndex, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(lshPayloadMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("index: reading lsh payload magic: %w", err)
	}
	if string(magic) != lshPayloadMagic {
		return nil, fmt.Errorf("index: bad lsh payload magic %q", magic)
	}
	head := make([]int64, 7)
	for i := range head {
		if err := binary.Read(br, binary.LittleEndian, &head[i]); err != nil {
			return nil, err
		}
	}
	var wBits uint64
	if err := binary.Read(br, binary.LittleEndian, &wBits); err != nil {
		return nil, err
	}
	if head[0] != int64(dim) || head[5] != int64(n) {
		return nil, fmt.Errorf("index: lsh payload of %d vectors of dimension %d, want %d of %d", head[5], head[0], n, dim)
	}
	cfg := lsh.Config{
		Dim:    dim,
		Tables: int(head[1]),
		Hashes: int(head[2]),
		Seed:   uint64(head[3]),
		W:      math.Float64frombits(wBits),
	}
	if head[1] <= 0 || head[1] > lshMaxTables || head[2] <= 0 || head[2] > lshMaxHashes || !(cfg.W > 0) || math.IsInf(cfg.W, 1) {
		return nil, fmt.Errorf("index: implausible lsh layout tables=%d hashes=%d w=%g", head[1], head[2], cfg.W)
	}
	raw := make([]float64, n*dim)
	if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
		return nil, fmt.Errorf("index: reading lsh vectors: %w", err)
	}
	ds, err := vec.DatasetFromRaw(dim, raw)
	if err != nil {
		return nil, err
	}
	deleted := make([]bool, n)
	for i := range deleted {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("index: reading lsh tombstones: %w", err)
		}
		deleted[i] = b != 0
	}
	a, err := newLSHIndex(cfg, int(head[4]), ds, deleted)
	if err != nil {
		return nil, err
	}
	if int64(a.live) != head[6] {
		return nil, fmt.Errorf("index: lsh header counts %d live vectors, tombstones leave %d", head[6], a.live)
	}
	return a, nil
}
