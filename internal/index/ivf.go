package index

import (
	"encoding/binary"
	"fmt"
	"io"

	"ppanns/internal/ivf"
	"ppanns/internal/kmeans"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// ivfIndex adapts ivf.Index to SecureIndex. IVF assigns ids in build order,
// which already matches vector positions, so no mapping is needed.
type ivfIndex struct {
	ix *ivf.Index
	// nprobe fixes the probed-list count; 0 derives it from the search's
	// ef budget.
	nprobe int
}

func buildIVF(vectors [][]float64, opts Options) (SecureIndex, error) {
	ix, err := ivf.Build(vectors, ivf.Config{
		Dim:        opts.Dim,
		Lists:      opts.Lists,
		TrainIters: opts.TrainIters,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &ivfIndex{ix: ix, nprobe: opts.NProbe}, nil
}

// probesFor maps the advisory ef budget onto a probed-list count: one list
// per 8 beam slots, never fewer than 4 nor more than nlist.
func (a *ivfIndex) probesFor(ef int) int {
	if a.nprobe > 0 {
		return a.nprobe
	}
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
func (a *ivfIndex) Dim() int { return a.ix.Dim() }

func (a *ivfIndex) Vector(id int) ([]float64, bool) {
	v := a.ix.Vector(id)
	return v, v != nil
}

// Rebuild repopulates a fresh index sharing the receiver's trained
// quantizer: assignments are recomputed per vector, but k-means training —
// the expensive part of a cold build — is not repeated. Dead slots are in
// no list.
func (a *ivfIndex) Rebuild(vectors [][]float64) (SecureIndex, error) {
	ix, err := a.ix.Rebuild(vectors)
	if err != nil {
		return nil, err
	}
	return &ivfIndex{ix: ix, nprobe: a.nprobe}, nil
}

// Trained reports the k-means work the build spent on the quantizer.
func (a *ivfIndex) Trained() kmeans.Stats { return a.ix.Trained() }

const ivfPayloadMagic = "IDXIVF01"

func (a *ivfIndex) Save(w io.Writer) error {
	if _, err := io.WriteString(w, ivfPayloadMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(a.nprobe)); err != nil {
		return err
	}
	return a.ix.Save(w)
}

func loadIVF(r io.Reader, dim, n int) (SecureIndex, error) {
	magic := make([]byte, len(ivfPayloadMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("index: reading ivf payload magic: %w", err)
	}
	if string(magic) != ivfPayloadMagic {
		return nil, fmt.Errorf("index: bad ivf payload magic %q", magic)
	}
	var nprobe int64
	if err := binary.Read(r, binary.LittleEndian, &nprobe); err != nil {
		return nil, err
	}
	ix, err := ivf.Load(r, dim, n)
	if err != nil {
		return nil, err
	}
	return &ivfIndex{ix: ix, nprobe: int(nprobe)}, nil
}
