package index

import (
	"ppanns/internal/frame"
	"ppanns/internal/ivf"
	"ppanns/internal/kmeans"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// ivfIndex adapts ivf.Index to SecureIndex. IVF assigns ids in build order,
// which already matches vector positions, so no mapping is needed.
type ivfIndex struct {
	ix *ivf.Index
}

func buildIVF(rows *vec.Dataset, live []bool, opts Options) (SecureIndex, error) {
	ix, err := ivf.Build(rows, live, ivf.Config{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &ivfIndex{ix: ix}, nil
}

// probesFor maps the advisory ef budget onto a probed-list count: one list
// per 8 beam slots, never fewer than 4 nor more than nlist.
func (a *ivfIndex) probesFor(ef int) int {
	np := ef / 8
	if np < 4 {
		np = 4
	}
	if np > a.ix.Lists() {
		np = a.ix.Lists()
	}
	return np
}

func (a *ivfIndex) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	return a.ix.SearchInto(dst, q, k, a.probesFor(ef))
}

func (a *ivfIndex) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	return a.ix.SearchIntoDist(dst, q, k, a.probesFor(ef), sc)
}

func (a *ivfIndex) Len() int { return a.ix.Len() }

func (a *ivfIndex) Vector(id int) ([]float64, bool) {
	v := a.ix.Vector(id)
	return v, v != nil
}

// Rebuild repopulates a fresh index sharing the receiver's trained
// quantizer: assignments are recomputed per vector, but k-means training —
// the expensive part of a cold build — is not repeated. Dead slots are in
// no list.
func (a *ivfIndex) Rebuild(rows *vec.Dataset, live []bool) (SecureIndex, error) {
	ix, err := a.ix.Rebuild(rows, live)
	if err != nil {
		return nil, err
	}
	return &ivfIndex{ix: ix}, nil
}

// Trained reports the k-means work the build spent on the quantizer.
func (a *ivfIndex) Trained() kmeans.Stats { return a.ix.Trained() }

func (a *ivfIndex) Save(e *frame.Encoder) { a.ix.Save(e) }

func loadIVF(d *frame.Decoder, rows *vec.Dataset, live []bool) (SecureIndex, error) {
	ix, err := ivf.Load(d, rows, live)
	if err != nil {
		return nil, err
	}
	return &ivfIndex{ix: ix}, nil
}
