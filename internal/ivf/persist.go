package ivf

import (
	"fmt"
	"math"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// The index's section of a database file: its topology alone. The rows,
// the id count and the liveness are the file's to state, once for every
// section, so none of them is stored here:
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
// whose liveness is live (live[id] false at every dead slot), and returns
// the index, which keeps rows and live as Build does. The bytes are
// untrusted: the centroids, whose count the rows do not bound, grow as
// their rows arrive, under nlist (vec.Rows.AppendZero), and the lists must
// hold every live id exactly once, in id order within a list, and no dead
// one.
func Load(d *frame.Decoder, rows *vec.Dataset, live []bool) (*Index, error) {
	n, dim := len(live), rows.Dim()
	if rows.Len() != n {
		return nil, fmt.Errorf("ivf: liveness of %d ids for %d rows", n, rows.Len())
	}
	ix := &Index{data: rows, live: live}
	for _, ok := range live {
		if ok {
			ix.size++
		}
	}
	nlist := d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ivf: reading header: %w", err)
	}
	if nlist < 0 || nlist > math.MaxInt32 || nlist == 0 && ix.size != 0 {
		return nil, fmt.Errorf("ivf: implausible header: %d lists over %d live ids", nlist, ix.size)
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
	ix.ids = make([]int32, ix.size)
	listed := make([]bool, n)
	for c := 0; c < nlist && d.Err() == nil; c++ {
		cnt := int(int32(d.U32()))
		at := int(ix.offs[c])
		if cnt < 0 || cnt > ix.size-at {
			d.Fail(fmt.Errorf("ivf: list %d claims %d members, %d live ids are left", c, cnt, ix.size-at))
			break
		}
		lst := ix.ids[at : at+cnt]
		d.Int32Run(lst)
		for j, id := range lst {
			if id < 0 || int(id) >= n || !live[id] || listed[id] || j > 0 && id < lst[j-1] {
				d.Fail(fmt.Errorf("ivf: list %d holds id %d out of range, dead, twice or out of order", c, id))
				break
			}
			listed[id] = true
		}
		ix.offs[c+1] = int32(at + cnt)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ivf: reading lists: %w", err)
	}
	if int(ix.offs[nlist]) != ix.size {
		return nil, fmt.Errorf("ivf: the lists hold %d of %d live ids", ix.offs[nlist], ix.size)
	}
	return ix, nil
}
