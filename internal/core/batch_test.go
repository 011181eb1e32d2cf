package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
)

// batchIDs runs SearchShardBatch and returns the per-query ids beside the
// aggregate error the transport and shard tiers build from its error slice.
func batchIDs(s *Server, toks []*QueryToken, k int, opt SearchOptions) ([][]int, error) {
	rs, errs := s.SearchShardBatch(toks, k, opt)
	var ids [][]int
	for _, r := range rs {
		ids = append(ids, r.IDs)
	}
	if be := NewBatchError(errs); be != nil {
		return ids, be
	}
	return ids, nil
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	data := clustered(61, 1000, 10, 8)
	w := newWorld(t, Params{Dim: 10, Beta: 0.5, Seed: 61}, data)
	queries := makeQueries(62, data, 24, 0.3)
	toks := make([]*QueryToken, len(queries))
	for i, q := range queries {
		toks[i] = mustToken(t, w, q)
	}
	opt := SearchOptions{RatioK: 8, EfSearch: 80, Parallelism: 6}
	batch, err := batchIDs(w.server, toks, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(toks) {
		t.Fatalf("batch returned %d results", len(batch))
	}
	for i, tok := range toks {
		seq, err := w.server.Search(tok, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(batch[i], seq) {
			t.Fatalf("query %d: batch %v vs sequential %v", i, batch[i], seq)
		}
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	data := clustered(63, 100, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 63}, data)
	res, errs := w.server.SearchShardBatch(nil, 5, SearchOptions{})
	if res != nil || errs != nil || NewBatchError(errs) != nil {
		t.Fatalf("empty batch: %v, %v", res, errs)
	}
}

func TestSearchBatchPropagatesErrors(t *testing.T) {
	data := clustered(64, 100, 6, 2)
	w := newWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 64}, data)
	tok, err := w.user.QueryFilterOnly(data[0]) // lacks the DCE trapdoor
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batchIDs(w.server, []*QueryToken{tok}, 5, SearchOptions{Parallelism: 2}); err == nil {
		t.Fatal("expected error to propagate from the batch")
	}
}

func TestSearchBatchPartialFailureKeepsResults(t *testing.T) {
	data := clustered(66, 400, 8, 4)
	w := newWorld(t, Params{Dim: 8, Beta: 0.3, Seed: 66}, data)
	bad, err := w.user.QueryFilterOnly(data[9]) // lacks the DCE trapdoor
	if err != nil {
		t.Fatal(err)
	}
	toks := []*QueryToken{mustToken(t, w, data[0]), bad, mustToken(t, w, data[1]), nil, mustToken(t, w, data[2])}

	results, batchErr := batchIDs(w.server, toks, 5, SearchOptions{RatioK: 8, Parallelism: 3})
	var be *BatchError
	if !errors.As(batchErr, &be) {
		t.Fatalf("batch error is %v (%T), want *BatchError", batchErr, batchErr)
	}
	if len(be.Failed) != 2 || be.Failed[0].Query != 1 || be.Failed[1].Query != 3 {
		t.Fatalf("failed set = %+v, want queries 1 and 3", be.Failed)
	}
	// One bad query must not void the good answers.
	for i, ids := range results {
		if want := 5 * (1 - i%2); len(ids) != want {
			t.Fatalf("query %d: %d ids, want %d", i, len(ids), want)
		}
	}
}

func TestCorruptedDatabaseDetected(t *testing.T) {
	data := clustered(65, 300, 8, 3)
	w := newWorld(t, Params{Dim: 8, Beta: 0.3, Seed: 65}, data)
	var buf bytes.Buffer
	err := w.server.Database().Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte inside the first ciphertext record (past magic+header).
	corrupt := append([]byte(nil), raw...)
	corrupt[64] ^= 0xFF
	if _, err := LoadEncryptedDatabase(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bit flip in ciphertext payload not detected")
	}
	// Unmodified stream still loads.
	if _, err := LoadEncryptedDatabase(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine stream failed to load: %v", err)
	}
}

// TestBatchParallelismResolution pins the worker count of a batch:
// SearchOptions.Parallelism (which travels over the wire), else one worker
// per CPU.
func TestBatchParallelismResolution(t *testing.T) {
	if got := (SearchOptions{Parallelism: 3}).parallelism(); got != 3 {
		t.Fatalf("option: %d, want 3", got)
	}
	if got, want := (SearchOptions{}).parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default: %d, want GOMAXPROCS %d", got, want)
	}
}
