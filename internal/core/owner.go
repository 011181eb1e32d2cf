package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/index"
	"ppanns/internal/kmeans"
	"ppanns/internal/par"
	"ppanns/internal/pq"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// DataOwner generates keys and encrypts the database. It is the only party
// that ever sees plaintext database vectors.
type DataOwner struct {
	params Params
	keys   *UserKey
	// rnd seeds the per-record streams of EncryptDatabase; it is derived
	// with the keys and advances once per call.
	rnd *rng.Rand
	// built is the most recent EncryptDatabase call's BuildStats.
	built BuildStats
}

// BuildStats says where one EncryptDatabase call spent its time, stage by
// stage — each stage is timed in place, so the four add up to the call less
// its validation and none can come out negative — and what its k-means runs
// (the IVF quantizer, the PQ subspaces) did.
type BuildStats struct {
	// KeyGen is key generation, which only an owner's first call pays.
	KeyGen time.Duration
	// Encrypt is the SAP and DCE encryption of every vector.
	Encrypt time.Duration
	// Index is the filter-index build over the SAP ciphertexts.
	Index time.Duration
	// PQ is codebook training plus encoding; zero without Params.PQ.
	PQ time.Duration
	// KMeansIters is the Lloyd iterations run, summed over every k-means
	// run of the build; a run stops at its bound (20 for the IVF quantizer,
	// 8 per PQ subspace) unless kmeans.Config.Tol stops it first.
	KMeansIters int
	// DistEvals is the squared distances those runs evaluated, seeding
	// included; scanning every centroid for every point would have taken
	// n·K·(iterations+1) per run.
	DistEvals int64
}

// BuildStats returns the stats of the most recent EncryptDatabase call.
func (o *DataOwner) BuildStats() BuildStats { return o.built }

// NewDataOwner validates parameters; keys are generated on the first
// encryption call because DCE's input scale depends on the data range.
func NewDataOwner(params Params) (*DataOwner, error) {
	p, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	return &DataOwner{params: p}, nil
}

// Params returns the validated parameters.
func (o *DataOwner) Params() Params { return o.params }

// UserKey returns the key material to authorize a user (Figure 1 step 0).
// It is nil until EncryptDatabase has run.
func (o *DataOwner) UserKey() *UserKey { return o.keys }

// generateKeys creates the DCE and SAP keys, with the DCE input scale set
// from the observed coordinate range.
func (o *DataOwner) generateKeys(maxAbs float64) error {
	scale := 1.0
	if maxAbs > 0 {
		scale = 1 / maxAbs
	}
	r := o.params.rand()
	dceKey, err := dce.KeyGenScaled(rng.Derive(r, 1), o.params.Dim, scale)
	if err != nil {
		return fmt.Errorf("core: DCE keygen: %w", err)
	}
	sapKey, err := dcpe.KeyGen(rng.Derive(r, 2), o.params.Dim, sapScale, o.params.Beta)
	if err != nil {
		return fmt.Errorf("core: SAP keygen: %w", err)
	}
	o.keys = &UserKey{DCE: dceKey, SAP: sapKey}
	o.rnd = rng.Derive(r, 4)
	return nil
}

// EncryptDatabase encrypts every vector under SAP and DCE, builds the
// selected filter index over the SAP ciphertexts, and returns the complete
// server-side state: the paper's B1/B2 steps of Figure 3.
//
// Every stage runs on GOMAXPROCS workers and none lets the worker count
// show: record i draws all its randomness (SAP, then DCE) from its own
// stream, derived from one base drawn here, and the index and PQ builds are
// functions of their seed and input. A seeded owner therefore
// produces the same bytes on any number of cores. EncryptVector keeps
// drawing from the keys' sequential streams.
func (o *DataOwner) EncryptDatabase(vectors [][]float64) (*EncryptedDatabase, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	for i, v := range vectors {
		if len(v) != o.params.Dim {
			return nil, fmt.Errorf("core: vector %d has dim %d, want %d", i, len(v), o.params.Dim)
		}
		if err := finite(v); err != nil {
			return nil, fmt.Errorf("core: vector %d: %w", i, err)
		}
	}
	var built BuildStats
	stage := time.Now()
	// lap returns the time since the previous stage ended.
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(stage)
		stage = now
		return d
	}
	if o.keys == nil {
		if err := o.generateKeys(vec.MaxAbs(vectors)); err != nil {
			return nil, err
		}
	}
	built.KeyGen = lap()

	n := len(vectors)
	sap := make([][]float64, n)
	// DCE ciphertexts are encrypted straight into the flat arena store:
	// workers fill disjoint records in place, so the encrypted database is
	// born cache-friendly with no per-point ciphertext allocation.
	store := dce.NewCiphertextStoreN(o.keys.DCE.CiphertextDim(), n)

	streams := rng.NewStreams(o.rnd)
	workers := min(runtime.GOMAXPROCS(0), n)
	encs := make([]*dce.Encryptor, workers)
	// Spans of 16 records, one DCE encryption block: each worker's
	// Encryptor reads the key matrices once per span, not once per record.
	par.Spans(workers, n, 16, func(w, lo, hi int) {
		if encs[w] == nil {
			encs[w] = o.keys.DCE.NewEncryptor()
		}
		rs, recs := make([]*rng.Rand, hi-lo), make([][]float64, hi-lo)
		for i := lo; i < hi; i++ {
			rs[i-lo] = streams.At(i)
			sap[i] = o.keys.SAP.EncryptWith(rs[i-lo], vectors[i])
			recs[i-lo] = store.Record(i)
		}
		encs[w].EncryptRecords(rs, vectors[lo:hi], recs)
	})
	built.Encrypt = lap()

	idx, err := index.Build(o.params.Index, sap, o.params.indexOptions())
	if err != nil {
		return nil, fmt.Errorf("core: building %s index: %w", o.params.Index, err)
	}
	built.Index = lap()
	var work kmeans.Stats
	if t, ok := idx.(interface{ Trained() kmeans.Stats }); ok {
		work = t.Trained()
	}

	edb := &EncryptedDatabase{
		Dim:     o.params.Dim,
		Backend: o.params.Index,
		Index:   idx,
		DCE:     store,
	}
	if o.params.PQ {
		// Trained on the SAP ciphertexts the server stores anyway; the
		// owner building it here just saves the server the one-time cost.
		pqStore, err := pq.Build(sap, pq.TrainConfig{M: o.params.PQM, Seed: o.params.Seed ^ 0x4bd})
		if err != nil {
			return nil, fmt.Errorf("core: building PQ tier: %w", err)
		}
		edb.PQ = pqStore
		built.PQ = lap()
		work.Add(pqStore.Book.Trained())
	}
	built.KMeansIters, built.DistEvals = work.Iters, work.DistEvals
	o.built = built
	return edb, nil
}

// EncryptVector produces the ciphertext payload for inserting one new
// vector (Section V-D). Keys must exist (EncryptDatabase must have run).
func (o *DataOwner) EncryptVector(v []float64) (*InsertPayload, error) {
	if o.keys == nil {
		return nil, fmt.Errorf("core: EncryptVector before EncryptDatabase")
	}
	if len(v) != o.params.Dim {
		return nil, fmt.Errorf("core: vector has dim %d, want %d", len(v), o.params.Dim)
	}
	if err := finite(v); err != nil {
		return nil, fmt.Errorf("core: vector: %w", err)
	}
	return &InsertPayload{
		SAP: o.keys.SAP.Encrypt(v),
		DCE: o.keys.DCE.Encrypt(v),
	}, nil
}

// finite refuses a NaN or ±Inf coordinate, naming it. Unrefused, a NaN
// encrypts into an all-NaN DCE record that every comparison ignores, and an
// infinity zeroes the DCE input scale.
func finite(v []float64) error {
	for j, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("coordinate %d is %v", j, x)
		}
	}
	return nil
}
