// Quickstart: encrypt a vector database, outsource it, and run
// privacy-preserving k-NN queries — all three roles in one process.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ppanns"
	"ppanns/internal/dataset"
)

func main() {
	// A SIFT-flavored synthetic corpus: 5000 database vectors, 20 queries.
	data := dataset.SIFTLike(5000, 20, 1)
	fmt.Printf("corpus: %s, n=%d, d=%d\n", data.Name, len(data.Train), data.Dim)

	// The data owner picks parameters: β controls how much the index-side
	// DCPE ciphertexts blur distances (privacy ↔ filter quality);
	// Params.IndexOptions would tune the HNSW build (defaults M=16, efC=200).
	dep, err := ppanns.NewDeployment(ppanns.Params{
		Dim:  data.Dim,
		Beta: 120, // ≈ half the admissible range's low end for SIFT-scale values
		Seed: 1,
	}, data.Train)
	if err != nil {
		log.Fatal(err)
	}

	// Query: k=10 with a 16× filter ratio (k' = 160 candidates refined by
	// exact DCE comparisons).
	const k = 10
	gt := data.GroundTruth(k)
	var recall float64
	for i, q := range data.Queries {
		ids, err := dep.Search(q, k, ppanns.SearchOptions{KPrime: 16 * k, EfSearch: 160})
		if err != nil {
			log.Fatal(err)
		}
		recall += dataset.Recall(ids, gt[i])
		if i == 0 {
			fmt.Printf("query 0 neighbors: %v\n", ids)
			fmt.Printf("exact neighbors:   %v\n", gt[i])
		}
	}
	fmt.Printf("Recall@%d over %d queries: %.3f\n", k, len(data.Queries), recall/float64(len(data.Queries)))

	// Updates (Section V-D): insert a new vector and find it.
	novel := make([]float64, data.Dim)
	for i := range novel {
		novel[i] = 255 // far corner: trivially its own nearest neighbor
	}
	id, err := dep.Insert(novel)
	if err != nil {
		log.Fatal(err)
	}
	got, err := dep.Search(novel, 1, ppanns.SearchOptions{KPrime: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted id %d; self-query returns %v\n", id, got)
	if err := dep.Delete(id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("deleted it again — done.")
}
