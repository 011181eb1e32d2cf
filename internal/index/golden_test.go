package index

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"ppanns/internal/resultheap"
)

// searchGolden holds each backend's answer digest, recorded before the
// backends lost their in-place mutation paths (Add, Clone, lazily rebuilt
// views beside a second search representation). The one representation left
// must answer exactly as the two did. The digests also predate dead slots:
// rebuilding with nil rows answers as tombstoning those ids after the build
// did, on the graphs too, although theirs are now built over the live ids
// only.
var searchGolden = map[string]string{
	"hnsw": "3ff3569b0509de33",
	"ivf":  "5ddeb507e6e48de3",
}

// answerDigest hashes SearchInto and SearchIntoDist over the queries: per
// result list its length, then every id and distance bit pattern in order.
func answerDigest(ix SecureIndex, data, queries [][]float64, k, ef int) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var dst []resultheap.Item
	for _, q := range queries {
		for pass := 0; pass < 2; pass++ {
			if pass == 0 {
				dst = ix.SearchInto(dst, q, k, ef)
			} else {
				dst = ix.SearchIntoDist(dst, q, k, ef, posScanner{data, q})
			}
			put(uint64(len(dst)))
			for _, it := range dst {
				put(uint64(it.ID))
				put(math.Float64bits(it.Dist))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestSearchGolden pins what every backend answers through its whole life:
// built from a seed, searched once, rebuilt with some ids dead, then saved
// and loaded. The rebuilt and the loaded index must both answer the fixed
// queries — SearchInto and SearchIntoDist, ids and distance bits — as
// recorded in searchGolden.
func TestSearchGolden(t *testing.T) {
	const n, dim, k, ef = 900, 24, 20, 20
	data := clustered(97, n, dim, 6)
	queries := makeQueries(98, data, 24, 2)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(name, data, Options{Dim: dim, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			ix.SearchInto(nil, queries[0], k, ef)
			live := slices.Clone(data)
			for _, id := range []int{0, 17, 450, n - 1} {
				live[id] = nil
			}
			if ix, err = rebuild(ix, dim, live); err != nil {
				t.Fatal(err)
			}
			loaded, err := loadSection(name, saveSection(t, ix), dim, live)
			if err != nil {
				t.Fatal(err)
			}
			for stage, ix := range map[string]SecureIndex{"rebuilt": ix, "loaded": loaded} {
				if got := answerDigest(ix, data, queries, k, ef); got != searchGolden[name] {
					t.Errorf("%s: answer digest %s, want %s", stage, got, searchGolden[name])
				}
			}
		})
	}
}
