// Package pq implements product quantization for the filter phase: the
// SAP-space vectors are split into M subspaces, each subspace is vector-
// quantized to at most 256 centroids (internal/kmeans), and every point is
// stored as M one-byte centroid codes instead of dim float64s. At query
// time one asymmetric distance table (ADT) is computed from the prepared
// query — lut[m][c] = ‖q_m − centroid_{m,c}‖² — after which a candidate's
// approximate squared distance is M table lookups, independent of dim.
//
// The quantizer is trained on the SAP ciphertexts, not the plaintexts:
// everything the server learns from the codes is a lossy function of data
// it already stores, so the compressed tier adds no leakage beyond the
// DCPE encryption the filter phase already rests on. Exact ordering is
// still owed to the DCE refine phase — PQ distances only steer the filter
// walk, so a larger over-fetch k′ recovers what the quantization loses.
package pq

import (
	"fmt"
	"runtime"

	"ppanns/internal/kmeans"
	"ppanns/internal/par"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// LUTStride is the per-subspace stride of every ADT, fixed at 256 (the
// code range of one byte) regardless of the trained centroid count, so the
// scan kernel's index arithmetic — lut[m·256 + code] — never depends on K.
const LUTStride = 256

// The training recipe: LUTStride centroids per subspace (one byte of
// code), clamped to the training set; a seeded sample of sampleSize
// vectors from corpora larger than that, which loses nothing at PQ's
// granularity and keeps million-vector training in seconds; and at most
// trainIters Lloyd iterations per subspace — PQ codebooks converge fast
// and the encode pass dominates anyway.
const (
	sampleSize = 8192
	trainIters = 8
)

// TrainConfig parameterizes codebook training.
type TrainConfig struct {
	// M is the number of subquantizers (bytes per encoded point). It must
	// divide into dim sensibly: 1 ≤ M ≤ dim. Default 16.
	M int
	// Seed drives subsampling and k-means++ seeding.
	Seed uint64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.M <= 0 {
		c.M = 16
	}
	return c
}

// Codebook holds the trained per-subspace centroids. Subspace m covers
// vector elements [off[m], off[m]+width[m]); when M does not divide dim the
// first dim%M subspaces are one element wider.
type Codebook struct {
	dim   int
	m     int
	k     int
	off   []int // subspace start offsets, len m
	width []int // subspace widths, len m
	// cents[m] is subspace m's flat centroid block: k rows of width[m]
	// float64s.
	cents [][]float64
	// trained is the k-means work Train spent, summed over the subspaces;
	// zero for a codebook reassembled from its centroids.
	trained kmeans.Stats
}

// Train fits a codebook to the given vectors (typically the SAP
// ciphertexts of the corpus).
func Train(vectors [][]float64, cfg TrainConfig) (*Codebook, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("pq: empty training set")
	}
	dim := len(vectors[0])
	cfg = cfg.withDefaults()
	if cfg.M > dim {
		return nil, fmt.Errorf("pq: M=%d exceeds dim=%d", cfg.M, dim)
	}

	sample := vectors
	if len(sample) > sampleSize {
		r := rng.NewSeeded(cfg.Seed ^ 0x9a7c)
		sample = make([][]float64, sampleSize)
		for i := range sample {
			sample[i] = vectors[r.IntN(len(vectors))]
		}
	}

	cb := newCodebook(dim, cfg.M, min(LUTStride, len(vectors)))
	// The subspaces are independent problems and train side by side, one
	// per worker: at PQ's shape (a few thousand short points) a run is too
	// small to fan out itself, and its serial parts — the D² total and
	// pick of every seeding — then overlap with another subspace's. Each
	// is clustered on a packed copy of its columns: Fit reads the rows in
	// every update step (and, at widths under kmeans.WideRow, copies them
	// transposed once for the block kernel's sweeps), and w floats out of
	// every dim would drag the whole sample through the cache each time.
	workers := min(runtime.GOMAXPROCS(0), cfg.M)
	sub := make([][]float64, workers*len(sample))
	cols := make([]float64, workers*len(sample)*cb.width[0])
	runs := make([]*kmeans.Result, cfg.M)
	errs := make([]error, cfg.M)
	par.Spans(workers, cfg.M, 1, func(worker, m, _ int) {
		o, w := cb.off[m], cb.width[m]
		rows := sub[worker*len(sample) : (worker+1)*len(sample)]
		packed := cols[worker*len(sample)*cb.width[0]:]
		for i, v := range sample {
			rows[i] = packed[i*w : (i+1)*w : (i+1)*w]
			copy(rows[i], v[o:o+w])
		}
		runs[m], errs[m] = kmeans.Fit(rows, kmeans.Config{
			K: cb.k, MaxIters: trainIters, Seed: cfg.Seed + uint64(m)*0x9e37,
		})
	})
	for m, res := range runs {
		if errs[m] != nil {
			return nil, fmt.Errorf("pq: subspace %d: %w", m, errs[m])
		}
		cb.cents[m] = res.Flat
		cb.trained.Add(res.Stats)
	}
	return cb, nil
}

// newCodebook lays out the subspace split for dim and m.
func newCodebook(dim, m, k int) *Codebook {
	cb := &Codebook{
		dim:   dim,
		m:     m,
		k:     k,
		off:   make([]int, m),
		width: make([]int, m),
		cents: make([][]float64, m),
	}
	base, rem := dim/m, dim%m
	off := 0
	for j := 0; j < m; j++ {
		w := base
		if j < rem {
			w++
		}
		cb.off[j] = off
		cb.width[j] = w
		off += w
	}
	return cb
}

// Dim returns the full vector dimension the codebook was trained on.
func (cb *Codebook) Dim() int { return cb.dim }

// M returns the number of subquantizers (bytes per encoded point).
func (cb *Codebook) M() int { return cb.m }

// K returns the number of centroids per subspace.
func (cb *Codebook) K() int { return cb.k }

// Trained returns the k-means work Train spent on the codebook, summed over
// its subspaces; zero for one that was loaded.
func (cb *Codebook) Trained() kmeans.Stats { return cb.trained }

// Centroids exposes the flat per-subspace centroid blocks (k rows of the
// subspace width each) for serialization. Callers must not modify them.
func (cb *Codebook) Centroids() [][]float64 { return cb.cents }

// SizeBytes returns the in-memory footprint of the centroid tables.
func (cb *Codebook) SizeBytes() int {
	total := 0
	for _, c := range cb.cents {
		total += 8 * len(c)
	}
	return total
}

// EncodeInto quantizes v into dst (len M, one centroid code per
// subspace).
func (cb *Codebook) EncodeInto(dst []byte, v []float64) {
	if len(v) != cb.dim {
		panic(fmt.Sprintf("pq: encoding %d-dim vector with %d-dim codebook", len(v), cb.dim))
	}
	for j := 0; j < cb.m; j++ {
		o, w := cb.off[j], cb.width[j]
		best, _ := kmeans.NearestFlat(cb.cents[j], w, v[o:o+w])
		dst[j] = byte(best)
	}
}

// EncodeAll encodes every vector into a fresh code store, across
// GOMAXPROCS workers (encoding a million points is the expensive half of a
// PQ build), into the codes EncodeInto writes. A span of points goes
// through one subspace at a time. Subspaces narrower than kmeans.WideRow —
// every one at the usual shapes — copy the span's columns transposed into
// the worker's scratch and offer all K centroids to every point through
// the block kernel; wider ones get a kmeans.Searcher for the call, from
// which a point starts at the centroid nearest in its first coordinate.
// Nothing is retained per subspace.
func (cb *Codebook) EncodeAll(vectors [][]float64) *CodeStore {
	for i, v := range vectors {
		if len(v) != cb.dim {
			panic(fmt.Sprintf("pq: encoding %d-dim vector %d with %d-dim codebook", len(v), i, cb.dim))
		}
	}
	cs := vec.NewRows[byte](cb.m, cb.m, len(vectors))
	workers := runtime.GOMAXPROCS(0)
	search := make([]*kmeans.Searcher, cb.m)
	par.Spans(workers, cb.m, 1, func(_, j, _ int) {
		if cb.width[j] >= kmeans.WideRow {
			search[j] = kmeans.NewSearcher(cb.cents[j], cb.width[j])
		}
	})
	const span = 256
	cols := make([]float64, workers*span*(kmeans.WideRow-1))
	dist := make([]float64, workers*span)
	idx := make([]int, workers*span)
	par.Spans(workers, len(vectors), span, func(worker, lo, hi int) {
		n := hi - lo
		for j, s := range search {
			o, w := cb.off[j], cb.width[j]
			if s != nil {
				for i := lo; i < hi; i++ {
					sub := vectors[i][o : o+w]
					best, _ := s.Nearest(sub, s.Guess(sub))
					cs.Row(i)[j] = byte(best)
				}
				continue
			}
			// Coordinate t of point lo+i at pts[t*n+i].
			pts := cols[worker*span*(kmeans.WideRow-1):][:w*n]
			for i, v := range vectors[lo:hi] {
				for t, x := range v[o : o+w] {
					pts[t*n+i] = x
				}
			}
			codes := idx[worker*span:][:n]
			kmeans.NearestBlock(codes, dist[worker*span:], pts, n, w, cb.cents[j])
			for i, c := range codes {
				cs.Row(lo + i)[j] = byte(c)
			}
		}
	})
	return cs
}

// FillLUT writes the asymmetric distance table for query q into lut
// (M·LUTStride float64s): lut[m·256+c] = ‖q_m − centroid_{m,c}‖². Entries
// past the trained K are never referenced by any code and are left
// untouched.
func (cb *Codebook) FillLUT(lut []float64, q []float64) {
	if len(q) != cb.dim {
		panic(fmt.Sprintf("pq: %d-dim query against %d-dim codebook", len(q), cb.dim))
	}
	if len(lut) < cb.m*LUTStride {
		panic(fmt.Sprintf("pq: LUT of %d floats, want %d", len(lut), cb.m*LUTStride))
	}
	for j := 0; j < cb.m; j++ {
		o, w := cb.off[j], cb.width[j]
		vec.SqDistRows(lut[j*LUTStride:j*LUTStride+cb.k], cb.cents[j], q[o:o+w])
	}
}
