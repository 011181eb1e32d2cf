package bench

import (
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/index"
)

// coreParamsFor builds laptop-scale parameters for one corpus.
func coreParamsFor(d *dataset.Data, beta float64, seed uint64) core.Params {
	return core.Params{Dim: d.Dim, Beta: beta, IndexOptions: index.Options{M: 12, EfConstruction: 120}, Seed: seed}
}

// searchOpts builds the common search options used in tests: k′ =
// ratio·k and beam width ef.
func searchOpts(k, ratio, ef int) core.SearchOptions {
	return core.SearchOptions{KPrime: ratio * k, EfSearch: ef}
}
