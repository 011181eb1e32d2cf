package core

import (
	"fmt"

	"ppanns/internal/par"
)

// QueryError attributes one failed query inside a batch.
type QueryError struct {
	Query int // index into the batch's token slice
	Err   error
}

func (e QueryError) Error() string { return fmt.Sprintf("query %d: %v", e.Query, e.Err) }

// Unwrap exposes the underlying per-query error to errors.Is/As.
func (e QueryError) Unwrap() error { return e.Err }

// BatchError aggregates the failures of a batch search. The batch's
// successful results are still returned alongside it — a single malformed
// token does not void a thousand good answers.
type BatchError struct {
	Failed []QueryError // in query order
}

// NewBatchError collects the non-nil entries of a per-query error slice
// (parallel to the batch's tokens) into a *BatchError, or returns nil when
// every query succeeded.
func NewBatchError(errs []error) *BatchError {
	var failed []QueryError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, QueryError{Query: i, Err: err})
		}
	}
	if failed == nil {
		return nil
	}
	return &BatchError{Failed: failed}
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: %d of batch queries failed (first: %v)", len(e.Failed), e.Failed[0])
}

// Unwrap exposes the per-query errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, qe := range e.Failed {
		out[i] = qe
	}
	return out
}

// SearchShardBatch is SearchShard over many queries, answered concurrently
// by at most opt.Parallelism workers (0 means one per CPU). The paper
// measures single-threaded search for comparability; a deployed cloud
// server answers its query stream in parallel, which the snapshot-isolated
// read path supports with no locking at all.
//
// Result and error slices are parallel to toks. A failed query does not
// discard the batch: its slot holds a zero ShardResult and its error, and
// every other slot holds its query's answer (NewBatchError folds the error
// slice into one error). Both slices are nil for an empty batch.
func (s *Server) SearchShardBatch(toks []*QueryToken, k int, opt SearchOptions) ([]ShardResult, []error) {
	if len(toks) == 0 {
		return nil, nil
	}
	results := make([]ShardResult, len(toks))
	errs := make([]error, len(toks))
	par.Spans(opt.parallelism(), len(toks), 1, func(_, i, _ int) {
		results[i], errs[i] = s.SearchShard(toks[i], k, opt)
	})
	return results, errs
}
