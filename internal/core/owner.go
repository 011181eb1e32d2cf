package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ppanns/internal/dataset"
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
// stage, and what its k-means runs (the IVF quantizer, the PQ subspaces)
// did. Each stage is timed in place, so none can come out negative. The
// stages run on two concurrent branches after the SAP encryption they all
// need: key generation and encryption on one, which therefore add up to no
// more than the call, and the index and the PQ tier side by side on the
// other, each of which fits inside the call on its own. Stages of
// different branches overlap, so the four do not add up to the call.
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
	// 8 per PQ subspace) or sooner, at the first iteration that moved no
	// centroid.
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

// EncryptDatabase encrypts every vector under SAP and DCE, builds the
// selected filter index over the SAP ciphertexts, and returns the complete
// server-side state: the paper's B1/B2 steps of Figure 3.
//
// The filter side never reads the DCE key or a DCE record, so the call is a
// small dependency graph. The SAP key and the SAP encryption of every
// record, written in place into the SAP column, come first. Then two
// branches run at once: the DCE key (on an owner's first call) and the
// DCE encryption of every record on the calling goroutine, and the filter
// index over the SAP column on a goroutine of its own, with the PQ tier
// (Params.PQ) beside it on another. The DCE input scale follows from the
// observed coordinate range, which is why keys wait for the first call.
//
// Every stage runs on GOMAXPROCS workers and none lets the worker count or
// the overlap show: record i draws all its randomness (SAP, then DCE) from
// its own stream, derived from one base drawn here and kept between the
// two encryptions, and the index and PQ builds are functions of their seed
// and input. A seeded owner therefore produces the same bytes on any
// number of cores. EncryptVector keeps drawing from the keys' sequential
// streams.
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
	// lap returns the time since the previous stage of this goroutine ended.
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(stage)
		stage = now
		return d
	}

	// The keys' streams are derived in a fixed order (DCE, SAP, then the
	// records' base), whichever key is generated first.
	var dceKey *dce.Key
	var sapKey *dcpe.Key
	var dceRand, rnd *rng.Rand
	if o.keys != nil {
		dceKey, sapKey, rnd = o.keys.DCE, o.keys.SAP, o.rnd
	} else {
		r := o.params.rand()
		dceRand = rng.Derive(r, 1)
		var err error
		if sapKey, err = dcpe.KeyGen(rng.Derive(r, 2), o.params.Dim, sapScale, o.params.Beta); err != nil {
			return nil, fmt.Errorf("core: SAP keygen: %w", err)
		}
		rnd = rng.Derive(r, 4)
	}
	built.KeyGen = lap()

	n := len(vectors)
	workers := min(runtime.GOMAXPROCS(0), n)
	sap, rs := vec.ZeroDataset(o.params.Dim, n), rng.NewStreams(rnd).First(n)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	par.Spans(workers, n, 64, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sapKey.EncryptWith(sap.At(i), rs[i], vectors[i])
		}
	})
	built.Encrypt = lap()

	// The filter branch: the index, and the PQ tier beside it. Each
	// goroutine writes only its own results.
	var (
		wg              sync.WaitGroup
		idx             index.SecureIndex
		idxErr, pqErr   error
		pqStore         *pq.Store
		idxTime, pqTime time.Duration
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.Now()
		idx, idxErr = index.BuildOver(o.params.Index, sap, ids, o.params.indexOptions())
		idxTime = time.Since(t)
	}()
	if o.params.PQ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			// Trained on the SAP ciphertexts the server stores anyway; the
			// owner building it here just saves the server the one-time cost.
			pqStore, pqErr = pq.Build(sap.Slices(), pq.TrainConfig{M: o.params.PQM, Seed: o.params.Seed ^ 0x4bd})
			pqTime = time.Since(t)
		}()
	}

	// The DCE branch, on this goroutine.
	if dceKey == nil {
		scale := 1.0
		if maxAbs := vec.MaxAbs(vectors); maxAbs > 0 {
			scale = 1 / maxAbs
		}
		k, err := dce.KeyGenScaled(dceRand, o.params.Dim, scale)
		if err != nil {
			wg.Wait()
			return nil, fmt.Errorf("core: DCE keygen: %w", err)
		}
		dceKey = k
		built.KeyGen += lap()
	}
	// DCE ciphertexts are encrypted straight into the flat arena store:
	// workers fill disjoint records in place, so the encrypted database is
	// born cache-friendly with no per-point ciphertext allocation.
	store := dce.NewCiphertextStoreN(dceKey.CiphertextDim(), n)
	encs, recs := make([]*dce.Encryptor, workers), make([][]float64, n)
	// Spans of 16 records, one DCE encryption block: each worker's
	// Encryptor reads the key matrices once per span, not once per record.
	par.Spans(workers, n, 16, func(w, lo, hi int) {
		if encs[w] == nil {
			encs[w] = dceKey.NewEncryptor()
		}
		for i := lo; i < hi; i++ {
			recs[i] = store.Record(i)
		}
		encs[w].EncryptRecords(rs[lo:hi], vectors[lo:hi], recs[lo:hi])
	})
	built.Encrypt += lap()
	wg.Wait()

	if o.keys == nil {
		o.keys, o.rnd = &UserKey{DCE: dceKey, SAP: sapKey}, rnd
	}
	if idxErr != nil {
		return nil, fmt.Errorf("core: building %s index: %w", o.params.Index, idxErr)
	}
	if pqErr != nil {
		return nil, fmt.Errorf("core: building PQ tier: %w", pqErr)
	}
	built.Index, built.PQ = idxTime, pqTime

	var work kmeans.Stats
	if t, ok := idx.(interface{ Trained() kmeans.Stats }); ok {
		work = t.Trained()
	}
	if pqStore != nil {
		work.Add(pqStore.Book.Trained())
	}
	built.KMeansIters, built.DistEvals = work.Iters, work.DistEvals
	o.built = built
	return &EncryptedDatabase{
		Dim:     o.params.Dim,
		Backend: o.params.Index,
		Index:   idx,
		SAP:     sap,
		DCE:     store,
		PQ:      pqStore,
		ids:     ids,
		n:       n,
	}, nil
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

// CalibrateBeta finds the β at which exact k-NN in SAP-ciphertext space
// reaches the target Recall@k against plaintext ground truth — the paper's
// procedure of choosing β "so that the upper bound of recall in the filter
// phase is around 0.5" (Section VII-A), evaluated with a brute-force proxy
// instead of a full index build so the calibration runs in milliseconds.
//
// The proxy is an upper bound on the filter-phase recall: the index search
// can only lose additional recall on top of the DCPE noise, so a β
// calibrated at 0.5 by the proxy lands the full filter phase at or just
// below 0.5, matching the paper's operating point. When no β in the search
// bracket brings the proxy down to the target — k at or above the corpus
// size makes every β perfect — it returns an error, not a guess.
func CalibrateBeta(train, queries [][]float64, k int, target float64, seed uint64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("core: recall target %g outside (0,1)", target)
	}
	if len(train) == 0 || len(queries) == 0 {
		return 0, fmt.Errorf("core: calibrating β needs vectors and queries (have %d and %d)", len(train), len(queries))
	}
	lo, hi := 0.0, 2*vec.MaxAbs(train)*math.Sqrt(float64(len(train[0])))
	reached := false
	// Recall is monotone decreasing in β; bisect.
	for iter := 0; iter < 12 && hi-lo > 1e-3*hi; iter++ {
		mid := (lo + hi) / 2
		r, err := sapRecallProxy(train, queries, k, mid, seed)
		if err != nil {
			return 0, err
		}
		if r > target {
			lo = mid
		} else {
			hi, reached = mid, true
		}
	}
	if !reached {
		return 0, fmt.Errorf("core: no β up to %.4g brings filter recall@%d down to %g over %d vectors; choose β by hand",
			hi, k, target, len(train))
	}
	return (lo + hi) / 2, nil
}

// sapRecallProxy measures Recall@k of exact k-NN in SAP space over at most
// 4000 vectors and 25 queries.
func sapRecallProxy(train, queries [][]float64, k int, beta float64, seed uint64) (float64, error) {
	key, err := dcpe.KeyGen(rng.NewSeeded(seed^0xca1b), len(train[0]), 1024, beta)
	if err != nil {
		return 0, err
	}
	train = train[:min(len(train), 4000)]
	queries = queries[:min(len(queries), 25)]
	encTrain := make([][]float64, len(train))
	for i, v := range train {
		encTrain[i] = key.Encrypt(v)
	}
	var recall float64
	for _, q := range queries {
		want := dataset.ExactKNN(train, q, k)
		got := dataset.ExactKNN(encTrain, key.Encrypt(q), k)
		recall += dataset.Recall(got, want)
	}
	return recall / float64(len(queries)), nil
}
