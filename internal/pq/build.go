package pq

// Store pairs a trained codebook with the code arena it encoded — the unit
// the serving tier carries per snapshot and the serialization layer
// persists alongside the ciphertext arena.
type Store struct {
	Book  *Codebook
	Codes *CodeStore
	// TrainedOn is the corpus size the codebook was trained against. The
	// compactor's deterministic retrain rule keys off it: once the database
	// has outgrown the training corpus 2×, the codebook is refit; below
	// that it is reused and only the codes are folded.
	TrainedOn int
	// Cfg is the training configuration (with defaults resolved), retained
	// so retrains keep the original M and seed.
	Cfg TrainConfig
}

// Build trains a codebook on the vectors and encodes them: the one-call
// construction the data owner and a fold's retrain use. TrainedOn is
// len(vectors); a caller whose retrain rule counts more than the vectors
// it trained on (a fold counts the id space) sets it after.
func Build(vectors [][]float64, cfg TrainConfig) (*Store, error) {
	book, err := Train(vectors, cfg)
	if err != nil {
		return nil, err
	}
	return &Store{
		Book:      book,
		Codes:     book.EncodeAll(vectors),
		TrainedOn: len(vectors),
		Cfg:       cfg.withDefaults(),
	}, nil
}

// NeedsRetrain reports whether the deterministic retrain rule fires for a
// corpus that has grown to n points.
func (s *Store) NeedsRetrain(n int) bool {
	return s.TrainedOn > 0 && n >= 2*s.TrainedOn
}

// SizeBytes returns the total in-memory footprint: centroid tables plus
// the code arena.
func (s *Store) SizeBytes() int { return s.Book.SizeBytes() + len(s.Codes.Raw()) }
