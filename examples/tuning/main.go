// Tuning reproduces the parameter methodology of Section VII-A on a small
// corpus: calibrate β so the filter-phase recall ceiling sits near 0.5
// (the paper's privacy operating point), then grid-search Ratio_k for the
// best QPS at a recall target.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"time"

	"ppanns"
	"ppanns/internal/core"
	"ppanns/internal/dataset"
)

func main() {
	const (
		k      = 10
		target = 0.9
	)
	data := dataset.DeepLike(4000, 30, 33)
	fmt.Printf("corpus: %s, n=%d, d=%d\n", data.Name, len(data.Train), data.Dim)

	// Step 1: β calibration (the paper tunes β per dataset so an attacker
	// watching only the filter phase guesses true neighbors ≈50% of the
	// time).
	beta, err := core.CalibrateBeta(data.Train, data.Queries, k, 0.5, 33)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated β = %.4f (filter-phase recall ceiling ≈ 0.5)\n", beta)

	dep, err := ppanns.NewDeployment(ppanns.Params{
		Dim: data.Dim, Beta: beta, Seed: 33,
	}, data.Train)
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: grid-search Ratio_k — the paper's "we employ the grid search
	// method to select the best value of k'".
	gt := data.GroundTruth(k)
	fmt.Printf("%-10s %10s %12s %12s\n", "Ratio_k", "recall", "QPS", "ms/query")
	bestRatio, bestQPS := 0, 0.0
	for _, ratio := range []int{1, 2, 4, 8, 16, 32, 64} {
		got := make([][]int, len(data.Queries))
		start := time.Now()
		for i, q := range data.Queries {
			ids, err := dep.Search(q, k, ppanns.SearchOptions{KPrime: ratio * k, EfSearch: 4 * ratio * k})
			if err != nil {
				log.Fatal(err)
			}
			got[i] = ids
		}
		elapsed := time.Since(start)
		recall := dataset.MeanRecall(got, gt)
		qps := float64(len(data.Queries)) / elapsed.Seconds()
		marker := ""
		if recall >= target && qps > bestQPS {
			bestRatio, bestQPS = ratio, qps
			marker = "  ← best so far"
		}
		fmt.Printf("%-10d %10.3f %12.1f %12.3f%s\n",
			ratio, recall, qps, elapsed.Seconds()*1000/float64(len(data.Queries)), marker)
	}
	if bestRatio == 0 {
		fmt.Printf("no Ratio_k reached recall %.2f — raise EfSearch or lower β\n", target)
		return
	}
	fmt.Printf("chosen operating point: Ratio_k=%d (%.1f QPS at recall ≥ %.2f)\n", bestRatio, bestQPS, target)
}
