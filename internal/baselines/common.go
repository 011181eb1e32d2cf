// Package baselines implements the three prior PP-ANNS systems the paper
// compares against in Section VII-B, each with the cost structure that
// drives the published comparison:
//
//   - RS-SANN [25]: AES-encrypted vectors + LSH index; the server filters,
//     the user downloads, decrypts and refines candidates.
//   - PACM-ANN [45]: user-driven proximity-graph search where every node
//     visit privately fetches a (vector, adjacency) block from two PIR
//     servers over multiple rounds.
//   - PRI-ANN [27]: LSH buckets laid out as PIR blocks and fetched in a
//     single round from two non-colluding servers; the user refines.
//
// All three expose the System interface so the experiment harness treats
// them and the paper's scheme uniformly, with per-side cost accounting
// (server time, user time, transfer bytes, rounds) — the quantities
// Figures 7 and 9 report.
//
// HNSWAME is Figure 6's comparison point instead: the paper's own filter
// phase with the refine done by AME comparisons rather than DCE.
package baselines

import (
	"encoding/binary"
	"math"
	"time"

	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// Costs is the per-query cost split.
type Costs struct {
	ServerTime    time.Duration
	UserTime      time.Duration
	UploadBytes   int64
	DownloadBytes int64
	Rounds        int
	Candidates    int
}

// Add accumulates c2 into c.
func (c *Costs) Add(c2 Costs) {
	c.ServerTime += c2.ServerTime
	c.UserTime += c2.UserTime
	c.UploadBytes += c2.UploadBytes
	c.DownloadBytes += c2.DownloadBytes
	c.Rounds += c2.Rounds
	c.Candidates += c2.Candidates
}

// System is a searchable PP-ANNS deployment under measurement.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Search answers a k-ANNS query, returning ids closest-first plus the
	// query's cost split.
	Search(q []float64, k int) ([]int, Costs, error)
}

// encodeVector serializes a float64 vector little-endian (8 bytes per
// coordinate) — the on-the-wire layout all baselines share.
func encodeVector(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// decodeVector inverts encodeVector.
func decodeVector(b []byte, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// topKByDistance selects the k closest candidate ids to q among cands
// (plaintext refine on the user side, shared by all baselines).
func topKByDistance(data map[int][]float64, cands []int, q []float64, k int) []int {
	var best resultheap.Pool
	for _, id := range cands {
		if v, ok := data[id]; ok {
			best.Offer(int32(id), vec.SqDist(v, q), k)
		}
	}
	out := make([]int, len(best.Cands()))
	for i, c := range best.Cands() {
		out[i] = int(c.ID)
	}
	return out
}
