package baselines

import (
	"fmt"
	"runtime"

	"ppanns/internal/ame"
	"ppanns/internal/core"
	"ppanns/internal/par"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// HNSWAME is Figure 6's HNSW-AME comparison point: the paper's filter phase
// refined by asymmetric matrix encryption (Zheng et al., Section III-C)
// instead of DCE — exact like DCE, but Θ(d²) per comparison. It holds its
// own AME key and one ciphertext per record, and borrows the deployment's
// server for the filter, so both refine schemes rank the same candidates.
type HNSWAME struct {
	server *core.Server
	key    *ame.Key
	cts    []*ame.Ciphertext
}

// NewHNSWAME encrypts data — the plaintexts of the records server hosts,
// in id order — under an AME key drawn from seed, with input scale
// 1/max|x| as the data owner scales DCE. Record i is encrypted on its own
// stream, so the seed fixes every ciphertext on any core count.
func NewHNSWAME(server *core.Server, data [][]float64, seed uint64) (*HNSWAME, error) {
	if server == nil || len(data) == 0 {
		return nil, fmt.Errorf("baselines: HNSW-AME needs a server and its data")
	}
	for i, v := range data {
		if len(v) != server.Dim() {
			return nil, fmt.Errorf("baselines: vector %d has dim %d, server %d", i, len(v), server.Dim())
		}
	}
	r := rng.NewSeeded(seed)
	scale := 1.0
	if m := vec.MaxAbs(data); m > 0 {
		scale = 1 / m
	}
	key, err := ame.KeyGenScaled(r, server.Dim(), scale)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	streams := rng.NewStreams(r)
	cts := make([]*ame.Ciphertext, len(data))
	par.Spans(runtime.GOMAXPROCS(0), len(data), 16, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			cts[i] = key.EncryptWith(streams.At(i), data[i])
		}
	})
	return &HNSWAME{server: server, key: key, cts: cts}, nil
}

// Trapdoor encrypts a query into its AME trapdoor, the user's Θ(d³) share
// of the baseline.
func (h *HNSWAME) Trapdoor(q []float64) (*ame.Trapdoor, error) {
	if len(q) != h.key.Dim() {
		return nil, fmt.Errorf("baselines: query has dim %d, want %d", len(q), h.key.Dim())
	}
	return h.key.TrapGen(q), nil
}

// Search answers one query. The server's filter phase picks the k′
// candidates the DCE refine would see for tok, delta tier included; then
// Algorithm 2's bounded max-heap keeps the best k of them by AME
// comparisons under td. It returns the ids closest first and the number of
// comparisons made.
func (h *HNSWAME) Search(tok *core.QueryToken, td *ame.Trapdoor, k, kPrime, ef int) ([]int, int, error) {
	if td == nil {
		return nil, 0, fmt.Errorf("baselines: nil AME trapdoor")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("baselines: non-positive k %d", k)
	}
	kPrime = max(kPrime, k)
	cands, err := h.server.Search(tok, kPrime, core.SearchOptions{KPrime: kPrime, EfSearch: ef, Refine: core.RefineNone})
	if err != nil || len(cands) == 0 {
		return nil, 0, err
	}
	for _, id := range cands {
		if id >= len(h.cts) {
			return nil, 0, fmt.Errorf("baselines: candidate %d has no AME ciphertext", id)
		}
	}
	heap := resultheap.NewCompareHeap(min(k, len(cands)), resultheap.Farther(func(a, b int) bool {
		return ame.Compare(h.cts[cands[a]], h.cts[cands[b]], td) > 0
	}))
	for i := range cands {
		heap.Offer(i)
	}
	ids := heap.SortedAscending()
	for i, pos := range ids {
		ids[i] = cands[pos]
	}
	return ids, heap.Comparisons(), nil
}
