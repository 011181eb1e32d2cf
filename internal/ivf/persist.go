package ivf

import (
	"fmt"
	"math"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// The index's section of a database file: its topology alone. The rows
// and their count are the file's to state, once for every section, so
// neither is stored here:
//
//	nlist: int64 | centroids: nlist rows of dim f64
//	per list: the member count i32 and the member ids i32, in id order

// Save writes the index's section.
func (ix *Index) Save(e *frame.Encoder) {
	e.Int(ix.Lists())
	e.FloatRun(ix.cents)
	for c := range ix.Lists() {
		lst := ix.list(c)
		e.U32(uint32(len(lst)))
		e.Int32Run(lst)
	}
}

// Load reads a section Save wrote for an index over rows, one id per row,
// and returns the index, which keeps rows as Build does. The bytes are
// untrusted: the centroids, whose count the rows do not bound, grow as
// their rows arrive, under nlist (vec.Rows.AppendZero), and the lists must
// hold every id exactly once, in id order within a list.
func Load(d *frame.Decoder, rows *vec.Dataset) (*Index, error) {
	n, dim := rows.Len(), rows.Dim()
	ix := &Index{data: rows}
	nlist := d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ivf: reading header: %w", err)
	}
	if nlist < 0 || nlist > math.MaxInt32 || nlist == 0 && n != 0 {
		return nil, fmt.Errorf("ivf: implausible header: %d lists over %d ids", nlist, n)
	}
	cents := vec.NewRows[float64](dim, dim, 0)
	for c := 0; c < nlist && d.Err() == nil; c++ {
		d.FloatRun(cents.AppendZero(nlist))
	}
	ix.cents = cents.Raw()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ivf: reading centroids: %w", err)
	}
	ix.offs = make([]int32, nlist+1)
	ix.ids = make([]int32, n)
	listed := make([]bool, n)
	for c := 0; c < nlist && d.Err() == nil; c++ {
		cnt := int(int32(d.U32()))
		at := int(ix.offs[c])
		if cnt < 0 || cnt > n-at {
			d.Fail(fmt.Errorf("ivf: list %d claims %d members, %d ids are left", c, cnt, n-at))
			break
		}
		lst := ix.ids[at : at+cnt]
		d.Int32Run(lst)
		for j, id := range lst {
			if id < 0 || int(id) >= n || listed[id] || j > 0 && id < lst[j-1] {
				d.Fail(fmt.Errorf("ivf: list %d holds id %d out of range, twice or out of order", c, id))
				break
			}
			listed[id] = true
		}
		ix.offs[c+1] = int32(at + cnt)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ivf: reading lists: %w", err)
	}
	if int(ix.offs[nlist]) != n {
		return nil, fmt.Errorf("ivf: the lists hold %d of %d ids", ix.offs[nlist], n)
	}
	return ix, nil
}
