package pq

import (
	"fmt"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// The PQ section of a database file, for a database of n records of
// dimension dim (both stated by the file's header, not here):
//
//	m, k, TrainedOn: int64 | Cfg.Seed: u64
//	centroids: subspace by subspace, k rows of its width (k·dim f64)
//	codes: n rows of m bytes
//
// The training config's M is the codebook's m, so it is not stored again,
// and the recipe's sample size and iteration bound are constants of the
// package, so neither is stored at all.

// Save writes the store's section.
func (s *Store) Save(e *frame.Encoder) {
	if s == nil || s.Book == nil || s.Codes == nil {
		e.Fail(fmt.Errorf("pq: saving incomplete store"))
		return
	}
	if s.Codes.Width() != s.Book.M() {
		e.Fail(fmt.Errorf("pq: code width %d does not match codebook M %d", s.Codes.Width(), s.Book.M()))
		return
	}
	for _, v := range []int{s.Book.M(), s.Book.K(), s.TrainedOn} {
		e.Int(v)
	}
	e.U64(s.Cfg.Seed)
	for _, block := range s.Book.Centroids() {
		e.FloatRun(block)
	}
	e.ByteRun(s.Codes.Raw())
}

// Load reads a section Save wrote for a database of n records of
// dimension dim. The bytes are untrusted, so the shape must fit dim before
// it sizes anything: the centroids are then bounded by dim and the code
// arena, which grows as its bytes arrive, by n — both paid for by the
// ciphertext section the caller has already read.
func Load(d *frame.Decoder, dim, n int) (*Store, error) {
	m, k, trainedOn := d.Int(), d.Int(), d.Int()
	seed := d.U64()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("pq: reading header: %w", err)
	}
	if m <= 0 || m > dim || k <= 0 || k > LUTStride || trainedOn < 0 {
		return nil, fmt.Errorf("pq: implausible header dim=%d m=%d k=%d TrainedOn=%d", dim, m, k, trainedOn)
	}
	book := newCodebook(dim, m, k)
	for j := 0; j < m && d.Err() == nil; j++ {
		book.cents[j] = make([]float64, k*book.width[j])
		d.FloatRun(book.cents[j])
	}
	codes := vec.NewRows[byte](m, m, 0)
	for i := 0; i < n && d.Err() == nil; i++ {
		d.ByteRun(codes.AppendZero(n))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("pq: reading the section: %w", err)
	}
	return &Store{
		Book:      book,
		Codes:     codes,
		TrainedOn: trainedOn,
		Cfg:       TrainConfig{M: m, Seed: seed},
	}, nil
}
