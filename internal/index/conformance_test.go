package index

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// The conformance suite runs every backend in Names() through the same
// contract: build, search-recall sanity, byte-exact save/load round-trip,
// and deletion by rebuilding over the rows that remain.

func clustered(seed uint64, n, dim, clusters int) [][]float64 {
	r := rng.NewSeeded(seed)
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, dim, 6)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = vec.Add(nil, centers[r.IntN(clusters)], rng.GaussianVec(r, dim, 1))
	}
	return out
}

// column lays vectors out as BuildOver takes them: the non-nil rows, each
// under its position as its id, so a nil row is a record a fold left out.
func column(dim int, vectors [][]float64) (*vec.Dataset, []int32) {
	rows, ids := vec.NewDataset(dim, len(vectors)), []int32{}
	for i, v := range vectors {
		if v != nil {
			rows.Append(v)
			ids = append(ids, int32(i))
		}
	}
	return rows, ids
}

// rebuild is ix.Rebuild over column(dim, vectors).
func rebuild(ix SecureIndex, dim int, vectors [][]float64) (SecureIndex, error) {
	return ix.Rebuild(column(dim, vectors))
}

// saveSection writes ix's section as a stream of its own, trailer
// included.
func saveSection(t testing.TB, ix SecureIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	ix.Save(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadSection reads a stream saveSection wrote: the named backend's
// section over column(dim, vectors), then the trailer.
func loadSection(name string, b []byte, dim int, vectors [][]float64) (SecureIndex, error) {
	rows, _ := column(dim, vectors)
	d := frame.NewDecoder(bytes.NewReader(b))
	ix, err := Load(name, d, rows)
	if err == nil {
		err = d.Done()
	}
	return ix, err
}

func makeQueries(seed uint64, data [][]float64, n int, noise float64) [][]float64 {
	r := rng.NewSeeded(seed)
	dim := len(data[0])
	out := make([][]float64, n)
	for i := range out {
		out[i] = vec.Add(nil, data[r.IntN(len(data))], rng.GaussianVec(r, dim, noise))
	}
	return out
}

func bruteForce(data [][]float64, q []float64, k int, skip func(int) bool) []int {
	type pair struct {
		id int
		d  float64
	}
	var all []pair
	for i, v := range data {
		if skip != nil && skip(i) {
			continue
		}
		all = append(all, pair{i, vec.SqDist(v, q)})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
	if len(all) > k {
		all = all[:k]
	}
	ids := make([]int, len(all))
	for i, p := range all {
		ids[i] = p.id
	}
	return ids
}

func recallOf(got, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	set := map[int]bool{}
	for _, id := range want {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func searchIDs(ix SecureIndex, q []float64, k, ef int) []int {
	items := ix.SearchInto(nil, q, k, ef)
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}

// minRecall is the per-backend floor for recall@10 with generous search
// effort. The graph is near-exact at this scale; IVF loses a little at list
// boundaries.
var minRecall = map[string]float64{
	"hnsw": 0.90,
	"ivf":  0.75,
}

func TestConformance(t *testing.T) {
	const n, dim, k, ef = 1500, 12, 10, 150
	data := clustered(7, n, dim, 10)
	queries := makeQueries(8, data, 30, 0.3)

	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ix, err := Build(name, data, Options{Dim: dim, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			if v, _ := ix.Vector(0); len(v) != dim {
				t.Fatalf("Vector(0) has %d floats, want %d", len(v), dim)
			}

			// The beam width can arrive from the wire. On a fresh index —
			// no pooled search context yet — an absurd ef must cost memory
			// bounded by the index and find what ef = n finds.
			if got, want := searchIDs(ix, queries[0], k, 1<<40), searchIDs(ix, queries[0], k, n); !slices.Equal(got, want) {
				t.Fatalf("ef=1<<40 found %v, ef=n found %v", got, want)
			}

			// Recall sanity against brute force.
			var recall float64
			for _, q := range queries {
				recall += recallOf(searchIDs(ix, q, k, ef), bruteForce(data, q, k, nil))
			}
			recall /= float64(len(queries))
			floor, ok := minRecall[name]
			if !ok {
				floor = 0.4 // unknown future backend: basic sanity only
			}
			if recall < floor {
				t.Fatalf("recall@%d = %.3f, want ≥ %.2f", k, recall, floor)
			}

			// SearchInto into a recycled dst must agree with a fresh one and
			// reuse dst's capacity.
			var dst []resultheap.Item
			for qi, q := range queries {
				want := ix.SearchInto(nil, q, k, ef)
				dst = ix.SearchInto(dst, q, k, ef)
				if !slices.Equal(dst, want) {
					t.Fatalf("query %d: SearchInto into a recycled dst %v, into nil %v", qi, dst, want)
				}
			}
			before := cap(dst)
			dst = ix.SearchInto(dst, queries[0], k, ef)
			if cap(dst) != before {
				t.Fatalf("SearchInto grew dst capacity %d → %d on a repeat query", before, cap(dst))
			}

			// Vector must recover every stored vector by position.
			for _, pos := range []int{0, 5, n / 2, n - 1} {
				v, ok := ix.Vector(pos)
				if !ok {
					t.Fatalf("Vector(%d) reported missing", pos)
				}
				for j := range v {
					if v[j] != data[pos][j] {
						t.Fatalf("Vector(%d)[%d] = %g, want %g", pos, j, v[j], data[pos][j])
					}
				}
			}
			if _, ok := ix.Vector(-1); ok {
				t.Fatal("Vector(-1) reported present")
			}
			if _, ok := ix.Vector(n); ok {
				t.Fatal("Vector(n) reported present")
			}

			// Save/load round-trip must reproduce results exactly.
			saved := saveSection(t, ix)
			ix2, err := loadSection(name, saved, dim, data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveSection(t, ix2), saved) {
				t.Fatal("round-trip changed the section's bytes")
			}
			// The section is refused over a column of another length.
			for _, vectors := range [][][]float64{data[:n-1], append(slices.Clone(data), data[0])} {
				if _, err := loadSection(name, saved, dim, vectors); err == nil {
					t.Fatalf("a section of %d ids loaded over %d", n, len(vectors))
				}
			}
			for qi, q := range queries {
				a, b := searchIDs(ix, q, k, ef), searchIDs(ix2, q, k, ef)
				if len(a) != len(b) {
					t.Fatalf("query %d: result counts differ after round-trip: %d vs %d", qi, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("query %d rank %d differs after round-trip: %d vs %d", qi, i, a[i], b[i])
					}
				}
			}

			// Vectors join through Rebuild: over the corpus plus one, the
			// newcomer is found at the next position, and the receiver is
			// left as it was.
			novel := vec.Scale(nil, 40, vec.Ones(dim)) // far from every cluster
			grown, err := rebuild(ix, dim, append(slices.Clone(data), novel))
			if err != nil {
				t.Fatal(err)
			}
			if got := searchIDs(grown, novel, 1, ef); grown.Len() != n+1 || len(got) != 1 || got[0] != n {
				t.Fatalf("rebuilt index of %d holds the new vector at %v, want [%d]", grown.Len(), got, n)
			}
			if ix.Len() != n {
				t.Fatalf("Rebuild changed its receiver's Len to %d", ix.Len())
			}

			// Deletion: a fold rebuilds over the rows that remain, each
			// under its id; the deleted vector is never returned, and every
			// row holds its own record's vector.
			q := data[5]
			top := searchIDs(ix, q, 1, ef)
			if len(top) != 1 {
				t.Fatal("no result before the rebuild")
			}
			dead := slices.Clone(data)
			dead[top[0]] = nil
			_, idOf := column(dim, dead)
			rebuilt, err := rebuild(ix, dim, dead)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.Len() != n-1 {
				t.Fatalf("Len with one record deleted = %d, want %d", rebuilt.Len(), n-1)
			}
			for _, slot := range searchIDs(rebuilt, q, k, ef) {
				if int(idOf[slot]) == top[0] {
					t.Fatal("the deleted record returned")
				}
			}
			for slot, id := range idOf {
				if v, ok := rebuilt.Vector(slot); !ok || !slices.Equal(v, data[id]) {
					t.Fatalf("row %d does not hold record %d's vector", slot, id)
				}
			}
			if _, ok := rebuilt.Vector(n - 1); ok {
				t.Fatal("Vector past the rows reported present")
			}

			// Every record deleted: an empty index over no row, from a build
			// (a stripe whose every record is gone) and from Rebuild (a fold
			// after deleting everything), and it round-trips.
			allDead := make([][]float64, 8)
			for how, build := range map[string]func() (SecureIndex, error){
				"build":   func() (SecureIndex, error) { return BuildOver(name, vec.NewDataset(dim, 0), nil, Options{Seed: 42}) },
				"rebuild": func() (SecureIndex, error) { return rebuild(ix, dim, allDead) },
			} {
				empty, err := build()
				if err != nil {
					t.Fatalf("%s over no row: %v", how, err)
				}
				if empty.Len() != 0 || len(empty.SearchInto(nil, q, k, ef)) != 0 {
					t.Fatalf("%s over no row: Len %d", how, empty.Len())
				}
				if loaded, err := loadSection(name, saveSection(t, empty), dim, allDead); err != nil || loaded.Len() != 0 {
					t.Fatalf("%s over no row does not round-trip: %v", how, err)
				}
			}
		})
	}
}

// TestBuildMatchesBuildOver: Build over slices is BuildOver over the
// column of the same rows, with nil ids or with ids 0..n-1 spelled out,
// down to the Save bytes and the answers, for every backend; an empty set
// builds an empty index of dimension Options.Dim through both, and a nil
// row is refused.
func TestBuildMatchesBuildOver(t *testing.T) {
	const n, dim, k, ef = 700, 10, 10, 80
	data := clustered(61, n, dim, 5)
	queries := makeQueries(62, data, 20, 0.3)
	holed := slices.Clone(data)
	holed[3] = nil
	opts := Options{Dim: dim, Seed: 63}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			if _, err := Build(name, holed, opts); err == nil {
				t.Fatal("Build accepted a nil row")
			}
			for how, vectors := range map[string][][]float64{"rows": data, "no row": {}} {
				wrapped, err := Build(name, vectors, opts)
				if err != nil {
					t.Fatal(err)
				}
				rows, ids := column(dim, vectors)
				saved := saveSection(t, wrapped)
				for _, ids := range [][]int32{nil, ids} {
					over, err := BuildOver(name, rows, ids, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(saveSection(t, over), saved) {
						t.Fatalf("%s, ids %v…: Build and BuildOver save different sections", how, ids[:min(len(ids), 3)])
					}
					for qi, q := range queries {
						if a, b := wrapped.SearchInto(nil, q, k, ef), over.SearchInto(nil, q, k, ef); !slices.Equal(a, b) {
							t.Fatalf("%s query %d: Build answers %v, BuildOver %v", how, qi, a, b)
						}
					}
				}
				if _, err := loadSection(name, saved, dim, vectors); err != nil {
					t.Fatalf("%s: the section does not load at dimension %d: %v", how, dim, err)
				}
			}
		})
	}
}

// posScanner is a BlockScanner keyed by position: exact distances from q to
// the vectors of a position-indexed corpus.
type posScanner struct {
	data [][]float64
	q    []float64
}

func (s posScanner) Dist(id int32) float64 { return vec.SqDist(s.data[id], s.q) }

func (s posScanner) DistBlock(dst []float64, ids []int32) {
	for j, id := range ids {
		dst[j] = s.Dist(id)
	}
}

// TestHNSWPositionsAreGraphIDs: the hnsw adapter translates nothing. The ids
// SearchInto and SearchIntoDist return are the graph's own and are positions
// in the column, and the ids the graph hands a scanner are positions too —
// through a build over the rows left after a deletion, and a save/load.
// That is what lets the adapter carry no id map.
func TestHNSWPositionsAreGraphIDs(t *testing.T) {
	const n, dim, k, ef = 620, 10, 10, 80
	data := clustered(95, n, dim, 5)
	queries := makeQueries(96, data, 20, 0.3)
	kept := slices.Clone(data)
	kept[17] = nil
	rows, ids := column(dim, kept)
	all := rows.Slices()
	ix, err := BuildOver("hnsw", rows, ids, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSection("hnsw", saveSection(t, ix), dim, kept)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]SecureIndex{"built": ix, "loaded": loaded} {
		g := ix.(*hnswIndex).g
		for qi, q := range queries {
			got := ix.SearchInto(nil, q, k, ef)
			if own := g.SearchInto(nil, q, k, ef); !slices.Equal(got, own) {
				t.Fatalf("%s query %d: SearchInto %v, the graph itself %v", name, qi, got, own)
			}
			for _, it := range got {
				if d := vec.SqDist(all[it.ID], q); it.Dist != d {
					t.Fatalf("%s query %d: id %d reported at distance %g, position %d is at %g", name, qi, it.ID, it.Dist, it.ID, d)
				}
			}
			// Scanner distances are the stored vectors' own, so the walk —
			// which asks the scanner about graph ids — must end in the same
			// place if and only if those ids are positions.
			viaScanner := ix.SearchIntoDist(nil, q, k, ef, posScanner{all, q})
			if !slices.Equal(viaScanner, got) {
				t.Fatalf("%s query %d: SearchIntoDist over positions %v, SearchInto %v", name, qi, viaScanner, got)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	if names := Names(); !slices.Equal(names, []string{"hnsw", "ivf"}) {
		t.Fatalf("Names() = %v, want [hnsw ivf]", names)
	}
	if err := Lookup("no-such-backend"); err == nil {
		t.Fatal("expected error for unknown backend")
	}
	if err := Lookup(""); err != nil {
		t.Fatalf("empty name (the default %q) refused: %v", Default, err)
	}
	// The retired serving tags are refused with a re-encrypt message.
	for _, name := range []string{"nsg", "lsh"} {
		err := Lookup(name)
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), "re-encrypt with hnsw or ivf") {
			t.Fatalf("Lookup(%q) = %v, want a re-encrypt refusal naming the tag", name, err)
		}
		if _, err := Build(name, clustered(1, 20, 4, 2), Options{Dim: 4}); err == nil {
			t.Fatalf("Build(%q) succeeded", name)
		}
	}
	if _, err := Build("no-such-backend", nil, Options{Dim: 4}); err == nil {
		t.Fatal("expected Build error for unknown backend")
	}
	if _, err := Build("hnsw", nil, Options{}); err == nil {
		t.Fatal("expected Build error for missing dimension")
	}
	if _, err := Load("no-such-backend", frame.NewDecoder(bytes.NewReader(nil)), vec.ZeroDataset(4, 0)); err == nil {
		t.Fatal("expected Load error for unknown backend")
	}
}

// TestConformanceFrozenViewStability covers the packed search
// representations on every backend: repeated searches must
// return the exact same ids in the exact same order, and a rebuild without
// the top hit must never return it.
func TestConformanceFrozenViewStability(t *testing.T) {
	data := clustered(91, 900, 12, 6)
	queries := makeQueries(92, data, 24, 0.3)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(name, data, Options{Dim: 12, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			first := make([][]resultheap.Item, len(queries))
			var dst []resultheap.Item
			for i, q := range queries {
				dst = ix.SearchInto(dst[:0], q, 10, 60)
				first[i] = append([]resultheap.Item(nil), dst...)
			}
			for i, q := range queries {
				dst = ix.SearchInto(dst[:0], q, 10, 60)
				if !slices.Equal(dst, first[i]) {
					t.Fatalf("query %d: repeat search %v, first %v", i, dst, first[i])
				}
			}
			victim := first[0][0].ID
			kept := slices.Clone(data)
			kept[victim] = nil
			_, idOf := column(12, kept)
			rebuilt, err := rebuild(ix, 12, kept)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				for _, it := range rebuilt.SearchInto(dst[:0], q, 10, 60) {
					if int(idOf[it.ID]) == victim {
						t.Fatalf("query %d: deleted record %d returned", i, victim)
					}
				}
			}
		})
	}
}
